"""Price and return panels, CSV ingestion, and block sums over time scales.

A panel holds one-period log returns, one column per asset. The return
over ``dt`` periods is the sum of ``dt`` consecutive rows; ``block_sums``
gives that sum at every start index, so its rows ``phase::dt`` are the
non-overlapping blocks at one phase offset and all rows together are the
overlapping ones. Log returns make the sum exact: the block sum is the
log return over the block.
"""
from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MODE_OVERLAPPING = "overlapping"
MODE_NONOVERLAPPING = "nonoverlapping"

_EPOCH = np.datetime64("2000-01-03", "D")
_FIRST_DATE = np.datetime64("0001-01-01", "D")  # datetime.date.min


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _check_ids(asset_ids: tuple[str, ...]) -> None:
    if len(asset_ids) == 0:
        raise ValueError("at least one asset id required")
    if any(not aid for aid in asset_ids):
        raise ValueError("asset ids must be non-empty strings")
    if len(set(asset_ids)) != len(asset_ids):
        raise ValueError("asset ids must be unique")


def _check_dates(timestamps: np.ndarray) -> None:
    if timestamps.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    if len(timestamps) > 1:
        diffs = np.diff(timestamps).astype("timedelta64[D]").astype(int)
        if np.any(diffs == 0):
            dup = timestamps[1:][diffs == 0][0]
            raise DataError(f"duplicate date {dup}")
        if np.any(diffs < 0):
            raise ValueError("timestamps must be strictly increasing")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Strictly positive price paths on an increasing date index.

    Attributes
    ----------
    asset_ids : tuple of str
        Unique column labels.
    timestamps : ndarray of datetime64[D], shape (T,)
    prices : ndarray of float, shape (T, n_assets)
    """

    asset_ids: tuple[str, ...]
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "asset_ids", tuple(str(a) for a in self.asset_ids))
        _check_ids(self.asset_ids)
        ts = np.asarray(self.timestamps, dtype="datetime64[D]")
        px = np.asarray(self.prices, dtype=float)
        if px.ndim != 2 or px.shape != (len(ts), len(self.asset_ids)):
            raise ValueError(
                f"prices shape {px.shape} does not match "
                f"{len(ts)} dates x {len(self.asset_ids)} assets"
            )
        _check_dates(ts)
        if not np.all(np.isfinite(px)):
            raise DataError("prices contain NaN or infinite entries")
        if np.any(px <= 0.0):
            raise DataError("prices must be strictly positive")
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "prices", _readonly(px))

    @property
    def n_periods(self) -> int:
        return self.prices.shape[0]

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """One-period log returns, one column per asset.

    Each timestamp is the date on which that row's return completes.
    """

    asset_ids: tuple[str, ...]
    timestamps: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "asset_ids", tuple(str(a) for a in self.asset_ids))
        _check_ids(self.asset_ids)
        ts = np.asarray(self.timestamps, dtype="datetime64[D]")
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2 or r.shape != (len(ts), len(self.asset_ids)):
            raise ValueError(
                f"returns shape {r.shape} does not match "
                f"{len(ts)} dates x {len(self.asset_ids)} assets"
            )
        _check_dates(ts)
        if not np.all(np.isfinite(r)):
            raise DataError("returns contain NaN or infinite entries")
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "returns", _readonly(r))

    @property
    def n_periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    def column(self, asset_id: str) -> np.ndarray:
        """Return one asset's series as a 1-D array."""
        try:
            j = self.asset_ids.index(asset_id)
        except ValueError:
            raise KeyError(f"unknown asset {asset_id!r}") from None
        return self.returns[:, j]

    def window(self, start: int, stop: int) -> "ReturnPanel":
        """Row slice [start, stop) as a panel."""
        if not 0 <= start < stop <= self.n_periods:
            raise ValueError(f"window [{start}, {stop}) outside panel of length {self.n_periods}")
        return ReturnPanel(
            self.asset_ids,
            self.timestamps[start:stop],
            self.returns[start:stop],
        )


def trading_dates(n: int, start: np.datetime64 = _EPOCH) -> np.ndarray:
    """Consecutive calendar dates for synthetic panels."""
    return np.asarray(start, dtype="datetime64[D]") + np.arange(n)


def panel_from_returns(returns: np.ndarray, asset_ids=None) -> ReturnPanel:
    """Wrap a plain array of one-period log returns as a panel."""
    r = np.asarray(returns, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    if asset_ids is None:
        asset_ids = tuple(f"a{j + 1}" for j in range(r.shape[1]))
    return ReturnPanel(asset_ids, trading_dates(r.shape[0]), r)


# ---------------------------------------------------------------------------
# CSV ingestion

def load_prices(path) -> PriceSeries:
    """Load a price panel from CSV.

    Expected layout: UTF-8 text, a header ``date,<id>,<id>,...``, then one
    row per day with ISO-8601 dates and strictly positive prices. Rows may
    arrive out of order and are sorted by date; a repeated date is an
    error. Error messages name the offending line and column.

    A canonical file is parsed in one vectorized ``np.loadtxt`` pass. It
    has ``\\n`` or ``\\r\\n`` line ends and no blank line, and every data
    line is a ``YYYY-MM-DD`` date followed by one finite positive number
    per asset, separated by bare commas, with no date repeated.
    ``prices_to_csv`` writes such files. Every other file goes through the
    line-precise row-by-row parse, which also reads non-canonical input
    such as quoted cells or ``20200101`` dates. The fast pass accepts only
    files on which the row parse returns the same arrays bit for bit.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            first = next(csv.reader(fh), None)
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if first is None:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in first]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(f"{path}: header must be 'date,<asset>,...', got {first!r}")
    asset_ids = tuple(header[1:])
    try:
        _check_ids(asset_ids)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None

    parsed = _parse_canonical(body, len(asset_ids))
    if parsed is None:
        return _parse_rows(path, asset_ids)
    return PriceSeries(asset_ids, *parsed)


def _parse_canonical(body: str, n_assets: int):
    """Dates and prices of canonical data lines, sorted by date, else None.

    Every check below rejects a file that ``np.loadtxt`` reads but the row
    parse rejects or reads differently.
    """
    body = body.replace("\r\n", "\n")
    # csv ends a row at a lone \r; numpy drops trailing NULs from a date
    if "\r" in body or "\0" in body:
        return None
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    # a header-only file, or a blank line, which loadtxt would skip
    if not lines or "" in lines:
        return None
    try:
        table = np.loadtxt(lines, dtype=[("date", "U11"), ("p", float, (n_assets,))],
                           delimiter=",", comments=None, ndmin=1)
        raw = table["date"]
        ts = raw.astype("datetime64[D]")
    except ValueError:
        return None
    prices = table["p"]
    canonical = (
        len(table) == len(lines)
        # the field is U11, so a longer cell keeps an 11th character and
        # fails here, as do 20200101, 2020-01 and years past 9999
        and np.all(np.char.str_len(raw) == 10)
        # datetime64 also reads +020-01-01, as year 20
        and np.all(ts.astype(str) == raw)
        # NaT and years <= 0 round-trip, but datetime.date rejects them
        and np.all(ts >= _FIRST_DATE)
        and np.all(np.isfinite(prices) & (prices > 0.0))
    )
    if not canonical:
        return None
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if np.any(ts[1:] == ts[:-1]):
        return None
    return ts, prices[order]


def _parse_rows(path, asset_ids: tuple[str, ...]) -> PriceSeries:
    """Parse the file's data rows cell by cell; errors name the line and column."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    n_cells = len(asset_ids) + 1
    dates: list[_dt.date] = []
    seen: dict[_dt.date, int] = {}
    values = np.empty((len(rows), len(asset_ids)))
    for r, row in enumerate(rows, start=2):
        if len(row) != n_cells:
            raise DataError(f"{path} line {r}: expected {n_cells} cells, got {len(row)}")
        raw_date = row[0].strip()
        try:
            d = _dt.date.fromisoformat(raw_date)
        except ValueError:
            raise DataError(f"{path} line {r}: bad date {raw_date!r}") from None
        if d in seen:
            raise DataError(f"{path} line {r}: date {d} already on line {seen[d]}")
        seen[d] = r
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                raise DataError(f"{path} line {r}, column {asset_ids[j]!r}: empty cell")
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path} line {r}, column {asset_ids[j]!r}: bad number {cell!r}"
                ) from None
            if np.isnan(v):
                raise DataError(f"{path} line {r}, column {asset_ids[j]!r}: NaN")
            if not np.isfinite(v) or v <= 0.0:
                raise DataError(
                    f"{path} line {r}, column {asset_ids[j]!r}: price {cell} not positive"
                )
            values[r - 2, j] = v
        dates.append(d)

    order = np.argsort(np.array(dates, dtype="datetime64[D]"), kind="stable")
    ts = np.array(dates, dtype="datetime64[D]")[order]
    return PriceSeries(asset_ids, ts, values[order])


def prices_to_csv(series: PriceSeries) -> str:
    """Render a price panel in the same CSV layout ``load_prices`` reads.

    Floats use shortest round-trip formatting, so write/read is lossless.
    """
    lines = ["date," + ",".join(series.asset_ids)]
    for t in range(series.n_periods):
        cells = [str(series.timestamps[t])]
        cells += [repr(float(v)) for v in series.prices[t]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_price_series(panel: ReturnPanel, initial: float = 100.0) -> PriceSeries:
    """Compound a return panel into prices starting at ``initial``.

    The price on the day before the first return is ``initial``; each later
    price multiplies by exp of that day's log return.
    """
    if initial <= 0:
        raise ValueError("initial price must be positive")
    log_path = np.vstack([np.zeros(panel.n_assets), np.cumsum(panel.returns, axis=0)])
    prices = initial * np.exp(log_path)
    ts = np.concatenate([[panel.timestamps[0] - np.timedelta64(1, "D")], panel.timestamps])
    return PriceSeries(panel.asset_ids, ts, prices)


# ---------------------------------------------------------------------------
# returns and block sums

def to_log_returns(series: PriceSeries) -> ReturnPanel:
    """One-period log returns of a price panel.

    Row ``t`` of the result is ``ln(p[t+1] / p[t])``, stamped with the date
    on which the return realizes. Needs at least two price rows.
    """
    if series.n_periods < 2:
        raise DataError(f"need >= 2 price rows, got {series.n_periods}")
    r = np.diff(np.log(series.prices), axis=0)
    return ReturnPanel(series.asset_ids, series.timestamps[1:], r)


def block_sums(x: np.ndarray, dt: int) -> np.ndarray:
    """Sums of ``dt`` consecutive rows: row ``t`` is ``x[t:t+dt].sum(0)``.

    Works along axis 0 of a 1-D or 2-D array and yields ``len(x) - dt + 1``
    rows, all start indices (overlapping blocks); rows ``phase::dt`` are the
    non-overlapping blocks at that phase. ``dt = 1`` returns ``x`` itself.
    """
    if dt == 1:
        return x
    c = np.concatenate([np.zeros((1,) + x.shape[1:]), np.cumsum(x, axis=0)])
    return c[dt:] - c[:-dt]


def min_phase_rows(n_rows: int, dt: int) -> int:
    """Rows of ``block_sums(x, dt)[phase::dt]`` in the shortest phase."""
    if dt == 1:
        return n_rows
    return (n_rows - dt + 1) // dt
