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


def _trusted(cls, **fields):
    """``cls`` holding ``fields`` unchecked: only for values derived from checked data."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_ids(asset_ids: tuple[str, ...]) -> None:
    if len(asset_ids) == 0:
        raise ValueError("at least one asset id required")
    if any(not aid for aid in asset_ids):
        raise ValueError("asset ids must be non-empty strings")
    if len(set(asset_ids)) != len(asset_ids):
        raise ValueError("asset ids must be unique")


def _check_panel(obj, name: str) -> np.ndarray:
    """Check a panel's ids, dates and ``name`` rows, store read-only copies, return the rows."""
    object.__setattr__(obj, "asset_ids", tuple(str(a) for a in obj.asset_ids))
    _check_ids(obj.asset_ids)
    ts = np.asarray(obj.timestamps, dtype="datetime64[D]")
    rows = np.asarray(getattr(obj, name), dtype=float)
    if rows.ndim != 2 or rows.shape != (len(ts), len(obj.asset_ids)):
        raise ValueError(f"{name} shape {rows.shape} does not match "
                         f"{len(ts)} dates x {len(obj.asset_ids)} assets")
    if ts.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    if len(ts) > 1:
        diffs = np.diff(ts).astype("timedelta64[D]").astype(int)
        if np.any(diffs == 0):
            raise DataError(f"duplicate date {ts[1:][diffs == 0][0]}")
        if np.any(diffs < 0):
            raise ValueError("timestamps must be strictly increasing")
    if not np.all(np.isfinite(rows)):
        raise DataError(f"{name} contain NaN or infinite entries")
    for key, a in (("timestamps", ts), (name, rows)):
        a = np.array(a, copy=True)
        a.setflags(write=False)
        object.__setattr__(obj, key, a)
    return rows


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
        if np.any(_check_panel(self, "prices") <= 0.0):
            raise DataError("prices must be strictly positive")

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
        _check_panel(self, "returns")

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
        """Row slice [start, stop) as a panel of read-only views, unchecked but for the bounds."""
        if not 0 <= start < stop <= self.n_periods:
            raise ValueError(f"window [{start}, {stop}) outside panel of length {self.n_periods}")
        return _trusted(ReturnPanel, asset_ids=self.asset_ids,
                        timestamps=self.timestamps[start:stop], returns=self.returns[start:stop])


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
    except csv.Error as exc:
        raise DataError(f"{path} line 1: {exc}") from None
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
    n_lines = len(lines)
    try:
        table = np.loadtxt(lines, dtype=[("date", "U11"), ("p", float, (n_assets,))],
                           delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    del lines
    # the date cells' code points; the field is U11, so a cell longer than
    # 10 keeps a nonzero 11th one
    code = np.ascontiguousarray(table["date"]).view(np.uint32).reshape(-1, 11)
    digits = code[:, [0, 1, 2, 3, 5, 6, 8, 9]].astype(np.int64) - ord("0")
    year = digits[:, :4] @ [1000, 100, 10, 1]
    month = digits[:, 4] * 10 + digits[:, 5]
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    ts = months.astype("datetime64[D]") + (digits[:, 6] * 10 + digits[:, 7] - 1)
    prices = table["p"]
    canonical = (
        len(table) == n_lines
        and np.all((code[:, 4] == ord("-")) & (code[:, 7] == ord("-")) & (code[:, 10] == 0))
        and np.all((digits >= 0) & (digits <= 9))
        # datetime.date takes years 1..9999
        and np.all(year >= 1)
        and np.all((month >= 1) & (month <= 12))
        # day 0, or a day past the end of its month, lands in another month
        and np.all(ts.astype("datetime64[M]") == months)
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
        reader = csv.reader(fh)
        try:
            rows = list(reader)[1:]
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
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
    return next(_block_sums_each(x, (dt,)))


def _block_sums_each(x: np.ndarray, scales):
    """``block_sums(x, dt)`` for each ``dt`` in turn, from one prefix sum."""
    c = None
    for dt in scales:
        if c is None and dt > 1:
            c = np.concatenate([np.zeros((1,) + x.shape[1:]), np.cumsum(x, axis=0)])
        yield x if dt == 1 else c[dt:] - c[:-dt]


def min_phase_rows(n_rows: int, dt: int, aggregation: str = MODE_NONOVERLAPPING) -> int:
    """Rows of ``block_sums(x, dt)[phase::dt]`` in the shortest phase.

    Overlapping aggregation keeps every start index as one phase, so that
    phase holds all ``n_rows - dt + 1`` block sums.
    """
    if aggregation == MODE_OVERLAPPING:
        return n_rows - dt + 1
    return (n_rows - dt + 1) // dt


def _check_scales(scales) -> tuple[int, ...]:
    """``scales`` as a tuple of distinct positive ints, or ``ValueError``."""
    out = []
    for s in scales:
        ds = int(s)
        if ds != s or ds < 1:
            raise ValueError(f"scales must be positive integers, got {s!r}")
        out.append(ds)
    if not out:
        raise ValueError("need at least one scale")
    if len(set(out)) != len(out):
        raise ValueError("scales must be distinct")
    return tuple(out)
