"""Price and return panels, CSV ingestion, and block sums over time scales.

A panel holds one-period log returns, one column per asset. The return
over ``dt`` periods is the sum of ``dt`` consecutive rows; ``block_sums``
gives that sum at every start index, so its rows ``phase::dt`` are the
non-overlapping blocks at one phase offset and all rows together are the
overlapping ones. Log returns make the sum exact: the block sum is the
log return over the block.
"""
from __future__ import annotations

import codecs
import csv
import datetime as _dt
import io
import math
import mmap
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def trading_dates(n: int) -> np.ndarray:
    """Consecutive calendar dates from 2000-01-03 for synthetic panels."""
    return _EPOCH + np.arange(n)


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
    row per day with ISO-8601 dates and strictly positive prices. One
    leading byte-order mark, which spreadsheet exports write, is dropped.
    Rows may arrive out of order and are sorted by date; a repeated date is
    an error. Error messages name the offending line and column.

    The file is mapped read-only where it can be, so no heap buffer of its
    size is taken; a source that cannot be mapped, such as a pipe, is read
    once, and either parse reads those bytes. A canonical body goes through one ``np.loadtxt`` call and
    its dates are read from their code points. It is ASCII with ``\\n`` or
    ``\\r\\n`` line ends, no NUL, no blank line and no line longer than
    csv's field limit, and every data line is a ``YYYY-MM-DD`` date followed
    by one finite positive number per asset, separated by bare commas, with
    no date repeated. ``prices_to_csv`` writes such files, and rows already
    in date order are not copied. Every other file goes through the
    line-precise row-by-row parse, which also reads non-canonical input such
    as quoted cells or ``20200101`` dates. The fast pass accepts only files
    on which the row parse returns the same arrays bit for bit.
    """
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # an empty file, a pipe
            data = fh.read()
    _check_utf8(path, data)
    first, start = _read_header(path, data)
    if first is None:
        raise DataError(f"{path}: empty file")
    if first:  # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        first[0] = first[0].removeprefix("\ufeff")
    header = [c.strip() for c in first]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(f"{path}: header must be 'date,<asset>,...', got {first!r}")
    asset_ids = tuple(header[1:])
    try:
        _check_ids(asset_ids)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None

    parsed = _parse_canonical(data, len(asset_ids), start)
    if isinstance(data, mmap.mmap):
        data = None  # unmapped; the row parse reads the file again
    if parsed is None:
        return _parse_rows(path, asset_ids, data)
    ts, prices = parsed
    ts.setflags(write=False)
    prices.setflags(write=False)
    return _trusted(PriceSeries, asset_ids=asset_ids, timestamps=ts, prices=prices)


_SCAN_CHUNK = 1 << 16


def _check_utf8(path, data) -> None:
    """Raise ``DataError`` at the first non-UTF-8 byte of ``data``, decoding a chunk at a time."""
    pos = 0
    while pos < len(data):
        try:
            pos += codecs.utf_8_decode(data[pos:pos + _SCAN_CHUNK], "strict",
                                       pos + _SCAN_CHUNK >= len(data))[1]
        except UnicodeDecodeError as exc:
            exc = UnicodeDecodeError("utf-8", data, pos + exc.start, pos + exc.end, exc.reason)
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None


# a line as a text file opened with newline="" yields it: up to \n, \r\n or a lone \r
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _read_header(path, data):
    """The first CSV record of UTF-8 ``data`` (None if empty) and the offset after it."""
    end = 0

    def lines():
        nonlocal end
        for m in _LINE.finditer(data):
            end = m.end()
            yield m.group().decode("utf-8")

    try:
        first = next(csv.reader(lines()), None)
    except csv.Error as exc:
        raise DataError(f"{path} line 1: {exc}") from None
    return first, end


def _parse_canonical(data, n_assets: int, start: int = 0):
    """Dates and prices of canonical data lines ``data[start:]``, sorted by date, else None.

    ``data`` is bytes or an ``mmap``. Every check below rejects a file that
    ``np.loadtxt`` reads but the row parse rejects or reads differently.
    """
    if start >= len(data):
        return None
    # one pass over the bytes in chunks: the line ends, the commas, and a non-ASCII byte
    ends, commas, ascii_only = [], 0, True
    for off in range(start, len(data), _SCAN_CHUNK):
        chunk = np.frombuffer(data, np.uint8, min(_SCAN_CHUNK, len(data) - off), off)
        ends.append(np.flatnonzero(chunk == ord("\n")) + off)
        commas += np.count_nonzero(chunk == ord(","))
        ascii_only &= bool(chunk.max() < 0x80)
    if data[-1:] != b"\n":
        ends.append(np.array([len(data)]))
    ends = np.concatenate(ends)
    starts = np.concatenate([[start], ends[:-1] + 1])
    lengths = ends - starts
    n_lines = len(ends)
    canonical = (
        ascii_only
        # csv ends a row at a lone \r; numpy drops trailing NULs from a date
        and (data.find(b"\r", start) < 0
             or re.compile(rb"\r(?!\n)").search(data, start) is None)
        and data.find(b"\0", start) < 0
        # a blank line, which loadtxt would skip, or one too short for a date
        and lengths.min() >= 11
        # csv refuses a cell longer than its field limit
        and lengths.max() <= csv.field_size_limit()
        # loadtxt below refuses a line with fewer commas, so each has n_assets
        and commas == n_lines * n_assets
    )
    if not canonical:
        return None
    del ends, lengths
    # the first 11 code points of every line
    code = sliding_window_view(np.frombuffer(data, np.uint8), 11)[starts]
    del starts
    ts = _iso_dates(code)
    del code
    if ts is None:
        return None
    body = data if isinstance(data, mmap.mmap) else io.BytesIO(data)
    body.seek(start)
    try:
        prices = np.loadtxt(iter(body.readline, b""), delimiter=",", comments=None, ndmin=2,
                            usecols=range(1, n_assets + 1), max_rows=n_lines)
    except ValueError:
        return None
    # NaN fails both comparisons
    if len(prices) != n_lines or not (np.all(prices > 0.0) and np.all(prices < np.inf)):
        return None
    if np.any(ts[1:] <= ts[:-1]):
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        if np.any(ts[1:] == ts[:-1]):
            return None
        prices = prices[order]
    return ts, prices


def _iso_dates(code: np.ndarray):
    """Days of ``YYYY-MM-DD,`` code points, one row of 11 per line, else None."""
    digits = code[:, [0, 1, 2, 3, 5, 6, 8, 9]]
    # uint8 arithmetic: a code point below "0" wraps past 9
    digits -= ord("0")
    if not (np.all(digits <= 9) and np.all(code[:, [4, 7, 10]] == np.frombuffer(b"--,", np.uint8))):
        return None
    year = digits[:, :4] @ np.array([1000, 100, 10, 1], np.int16)
    month = digits[:, 4:6] @ np.array([10, 1], np.int16)
    day = digits[:, 6:] @ np.array([10, 1], np.int16)
    del digits
    months = ((year.astype(np.int64) - 1970) * 12 + month - 1).astype("datetime64[M]")
    ts = months.astype("datetime64[D]") + (day - 1)
    canonical = (
        # datetime.date takes years 1..9999
        np.all(year >= 1)
        and np.all((month >= 1) & (month <= 12))
        # day 0, or a day past the end of its month, lands in another month
        and np.all(ts.astype("datetime64[M]") == months)
    )
    return ts if canonical else None


def _parse_rows(path, asset_ids: tuple[str, ...], data: bytes | None = None) -> PriceSeries:
    """Parse the file's data rows cell by cell; errors name the line and column.

    ``data``, when given, is the file's bytes, already read from a source
    that cannot be read twice, such as a pipe. A first pass counts the
    records, so a csv error comes before any cell error; a second fills
    arrays one record at a time.
    """
    with (open(path, "r", newline="", encoding="utf-8") if data is None
          else io.StringIO(data.decode("utf-8"), newline="")) as fh:
        reader = csv.reader(fh)
        try:
            n_rows = sum(1 for _ in reader) - 1
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        ts, values = _fill_rows(path, asset_ids, reader, n_rows)
    order = np.argsort(ts, kind="stable")
    return PriceSeries(asset_ids, ts[order], values[order])


def _fill_rows(path, asset_ids, reader, n_rows: int):
    """Dates and prices of the ``n_rows`` data records ``reader`` yields, in file order."""
    n_cells = len(asset_ids) + 1
    seen: dict[_dt.date, int] = {}
    ts = np.empty(n_rows, dtype="datetime64[D]")
    values = np.empty((n_rows, len(asset_ids)))
    for r, row in enumerate(reader, start=2):
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
            if math.isnan(v):
                raise DataError(f"{path} line {r}, column {asset_ids[j]!r}: NaN")
            if not math.isfinite(v) or v <= 0.0:
                raise DataError(
                    f"{path} line {r}, column {asset_ids[j]!r}: price {cell} not positive"
                )
            values[r - 2, j] = v
        ts[r - 2] = d
    return ts, values


def prices_to_csv(series: PriceSeries) -> str:
    """Render a price panel in the same CSV layout ``load_prices`` reads.

    Floats use shortest round-trip formatting (``repr``), so write/read is
    lossless.
    """
    dates = np.datetime_as_string(series.timestamps, unit="D").tolist()
    lines = ["date," + ",".join(series.asset_ids)]
    lines += [d + "," + ",".join(map(repr, row))
              for d, row in zip(dates, series.prices.tolist())]
    return "\n".join(lines) + "\n"


def to_price_series(panel: ReturnPanel, initial: float = 100.0) -> PriceSeries:
    """Compound a return panel into prices starting at ``initial``.

    The price on the day before the first return is ``initial``; each later
    price multiplies by exp of that day's log return.
    """
    if initial <= 0:
        raise ValueError("initial price must be positive")
    prices = initial * np.exp(_prefix_sum(panel.returns))
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
    # log differences of finite positive prices are finite, and the dates
    # of a checked series strictly increase
    r = np.diff(np.log(series.prices), axis=0)
    r.setflags(write=False)
    return _trusted(ReturnPanel, asset_ids=series.asset_ids,
                    timestamps=series.timestamps[1:], returns=r)


def block_sums(x: np.ndarray, dt: int) -> np.ndarray:
    """Sums of ``dt`` consecutive rows: row ``t`` is ``x[t:t+dt].sum(0)``.

    Works along axis 0 of a 1-D or 2-D array and yields ``len(x) - dt + 1``
    rows, all start indices (overlapping blocks); rows ``phase::dt`` are the
    non-overlapping blocks at that phase. ``dt = 1`` returns ``x`` itself.
    A ``dt`` that is not a positive integer, or that exceeds ``len(x)``, is
    a ``ValueError``.
    """
    [dt] = _check_scales((dt,))
    if dt > len(x):
        raise ValueError(f"scale {dt} is longer than the {len(x)} rows to sum")
    if dt == 1:
        return x
    c = _prefix_sum(x)
    return c[dt:] - c[:-dt]


def _prefix_sum(x: np.ndarray) -> np.ndarray:
    """Prefix sum of ``x`` along axis 0 behind a zero row: ``c[t + dt] - c[t]``
    is the sum of rows ``t .. t + dt - 1``."""
    c = np.empty((len(x) + 1,) + x.shape[1:])
    c[0] = 0.0
    np.cumsum(x, axis=0, out=c[1:])
    return c


def min_phase_rows(n_rows: int, dt: int, aggregation: str = MODE_NONOVERLAPPING) -> int:
    """Rows of ``block_sums(x, dt)[phase::dt]`` in the shortest phase.

    Overlapping aggregation keeps every start index as one phase, so that
    phase holds all ``n_rows - dt + 1`` block sums.
    """
    if aggregation == MODE_OVERLAPPING:
        return n_rows - dt + 1
    return (n_rows - dt + 1) // dt


# a per-scale estimate needs this many block sums in every phase
MIN_PHASE_ROWS = 4


def _check_phase_rows(n_rows: int, dt: int, aggregation: str = MODE_NONOVERLAPPING):
    """``DataError`` unless scale ``dt`` leaves ``MIN_PHASE_ROWS`` block sums in every phase."""
    rows = min_phase_rows(n_rows, dt, aggregation)
    if rows < MIN_PHASE_ROWS:
        kind = ("blocks in the worst phase" if aggregation == MODE_NONOVERLAPPING
                else "overlapping observations")
        raise DataError(f"scale {dt} leaves {rows} {kind}, need >= {MIN_PHASE_ROWS}")


def _integral(value) -> int | None:
    """``value`` as an int if it is a finite whole number, else None."""
    try:
        return int(value) if int(value) == value else None
    except (TypeError, ValueError, OverflowError):
        return None


# the scales, in periods, of scaling estimates, backtests and the lead-lag calibration
DEFAULT_SCALES = (1, 2, 5, 10, 21)


def _check_scales(scales) -> tuple[int, ...]:
    """``scales`` as a tuple of distinct positive ints, or ``ValueError``."""
    out = []
    for s in scales:
        ds = _integral(s)
        if ds is None or ds < 1:
            raise ValueError(f"scales must be positive integers, got {s!r}")
        out.append(ds)
    if not out:
        raise ValueError("need at least one scale")
    if len(set(out)) != len(out):
        raise ValueError("scales must be distinct")
    return tuple(out)
