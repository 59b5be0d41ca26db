"""Panel containers, CSV ingestion, and block sums."""

import mmap
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
from multiscale_markowitz import cli, timeseries
from multiscale_markowitz.errors import DataError
from multiscale_markowitz.timeseries import (
    PriceSeries,
    ReturnPanel,
    block_sums,
    load_prices,
    min_phase_rows,
    panel_from_returns,
    prices_to_csv,
    to_log_returns,
    to_price_series,
    trading_dates,
)


# ---------------------------------------------------------------------------
# containers


def test_panel_from_returns_defaults():
    p = panel_from_returns(np.array([0.01, -0.02, 0.03]))
    assert p.asset_ids == ("a1",)
    assert p.n_periods == 3
    assert p.n_assets == 1


def test_panel_arrays_are_readonly():
    p = panel_from_returns(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        p.returns[0, 0] = 1.0


def test_panel_column_lookup():
    r = np.arange(6.0).reshape(3, 2)
    p = panel_from_returns(r, asset_ids=("x", "y"))
    assert np.array_equal(p.column("y"), r[:, 1])
    with pytest.raises(KeyError):
        p.column("z")


def test_panel_window_slices_rows():
    p = panel_from_returns(np.arange(10.0))
    w = p.window(2, 7)
    assert w.n_periods == 5
    assert np.array_equal(w.returns[:, 0], np.arange(2.0, 7.0))
    assert np.array_equal(w.timestamps, p.timestamps[2:7])
    assert w.asset_ids == p.asset_ids
    # read-only views of the parent's checked arrays, not re-checked copies
    for part, whole in ((w.returns, p.returns), (w.timestamps, p.timestamps)):
        assert not part.flags.writeable
        assert np.shares_memory(part, whole)
    with pytest.raises(ValueError, match="outside panel"):
        p.window(3, 3)
    with pytest.raises(ValueError, match="outside panel"):
        p.window(0, 11)


def test_panel_rejects_nan():
    with pytest.raises(DataError, match="NaN or infinite"):
        panel_from_returns(np.array([0.1, np.nan]))


def test_panel_rejects_unordered_dates():
    ts = trading_dates(3)[::-1].copy()
    with pytest.raises(ValueError):
        ReturnPanel(("a1",), ts, np.zeros((3, 1)))


def test_panel_rejects_duplicate_dates():
    ts = trading_dates(3).copy()
    ts[2] = ts[1]
    with pytest.raises(DataError, match="duplicate date"):
        ReturnPanel(("a1",), ts, np.zeros((3, 1)))


@pytest.mark.parametrize("ids, message", [
    ((), "at least one asset id required"),
    (("a1", ""), "asset ids must be non-empty strings"),
    (("a1", "a1"), "asset ids must be unique"),
])
def test_panel_rejects_bad_asset_ids(ids, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReturnPanel(ids, trading_dates(3), np.zeros((3, len(ids))))


def test_price_series_rejects_nonpositive():
    with pytest.raises(DataError, match="strictly positive"):
        PriceSeries(("a1",), trading_dates(2), np.array([[1.0], [0.0]]))


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_is_lossless(tmp_path, rng):
    prices = np.exp(rng.standard_normal((30, 3)) * 0.02).cumprod(axis=0) * 50.0
    prices[0] = [5e-324, 1.7976931348623157e308, 1e16]
    prices[1, 0] = 1e-05
    s = PriceSeries(("aaa", "bbb", "ccc"), trading_dates(30), prices)
    path = tmp_path / "p.csv"
    path.write_text(prices_to_csv(s))
    back = load_prices(path)
    assert back.asset_ids == s.asset_ids
    assert np.array_equal(back.timestamps, s.timestamps)
    assert np.array_equal(back.prices, s.prices)


def _reference_prices_to_csv(series):
    # the per-row writer: a numpy date scalar and float(v) for every cell
    lines = ["date," + ",".join(series.asset_ids)]
    for t in range(series.n_periods):
        cells = [str(series.timestamps[t])]
        cells += [repr(float(v)) for v in series.prices[t]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _writer_panels():
    edge = [1e-05, 9.999999999999999e15, 1e16, 1e22, 5e-324, 1.0]
    dates = np.array(["0001-01-01", "0001-01-02", "1969-12-31", "2000-02-29",
                      "9999-12-30", "9999-12-31"], dtype="datetime64[D]")
    yield PriceSeries(("a", "b"), dates, np.column_stack([edge, edge[::-1]]))
    first, last = np.datetime64("0001-01-01", "D"), np.datetime64("9999-12-31", "D")
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 400)), int(rng.integers(1, 6))
        days = np.sort(rng.choice((last - first).astype(int) + 1, n, replace=False))
        prices = 10.0 ** rng.uniform(-300, 300, (n, k))
        if seed % 2:
            prices = np.exp(rng.standard_normal((n, k)) * 0.01).cumprod(axis=0) * 50.0
        yield PriceSeries(tuple(f"x{j}" for j in range(k)), first + days, prices)


def test_prices_to_csv_matches_per_row_reference(tmp_path):
    for s in _writer_panels():
        text = prices_to_csv(s)
        assert text == _reference_prices_to_csv(s)
        path = tmp_path / "p.csv"
        path.write_text(text)
        back = load_prices(path)
        assert back.timestamps.tobytes() == s.timestamps.tobytes()
        assert back.prices.tobytes() == s.prices.tobytes()


@pytest.mark.parametrize("kind", cli._SIMULATE_KINDS)
def test_simulate_writes_the_reference_bytes(tmp_path, kind):
    path = tmp_path / f"{kind}.csv"
    argv = ["simulate", "--kind", kind, "--n", "256", "--seed", "5", "--out", str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert path.read_bytes() == _reference_prices_to_csv(load_prices(path)).encode()


def test_load_prices_canonical_file_skips_row_parse(tmp_path, monkeypatch, rng):
    # prices_to_csv output must take the vectorized pass, rows out of order too
    n = 1 << 12
    prices = np.exp(rng.standard_normal((n, 3)) * 0.02).cumprod(axis=0) * 50.0
    s = PriceSeries(("a", "b", "c"), trading_dates(n), prices)
    header, *rows = prices_to_csv(s).splitlines()
    order = rng.permutation(n)
    path = tmp_path / "p.csv"
    path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")

    def row_parse(*args):
        raise AssertionError("canonical file fell back to the row parse")

    monkeypatch.setattr(timeseries, "_parse_rows", row_parse)
    back = load_prices(path)
    assert np.array_equal(back.timestamps, s.timestamps)
    assert np.array_equal(back.prices, s.prices)


def test_load_prices_edge_dates_skip_row_parse(tmp_path, monkeypatch):
    # leap days and the first and last dates datetime.date can hold
    dates = ["2024-02-29", "0001-01-01", "9999-12-31", "2000-02-29"]
    path = tmp_path / "p.csv"
    path.write_text("date,a1\n" + "".join(f"{d},{i + 1}\n" for i, d in enumerate(dates)))

    def row_parse(*args):
        raise AssertionError("canonical file fell back to the row parse")

    monkeypatch.setattr(timeseries, "_parse_rows", row_parse)
    back = load_prices(path)
    assert np.array_equal(back.timestamps, np.array(sorted(dates), dtype="datetime64[D]"))
    assert np.array_equal(back.prices[:, 0], [2.0, 4.0, 1.0, 3.0])


# near misses of YYYY-MM-DD, and other text
_padded_date = st.builds(
    lambda y, m, d, widths: f"{y:0{widths[0]}d}-{m:0{widths[1]}d}-{d:0{widths[2]}d}",
    st.integers(0, 10000), st.integers(0, 13), st.integers(0, 32),
    st.sampled_from([(4, 2, 2), (3, 2, 2), (5, 2, 2), (4, 1, 2), (4, 2, 3)]),
)
_odd_cell = _padded_date | st.text("0123456789-+:TW ０２", max_size=12)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cells=st.lists(st.dates().map(str), min_size=1, max_size=3),
       odd=st.none() | _odd_cell)
def test_fast_date_read_agrees_with_row_parse(cells, odd):
    # on any date cells the vectorized pass declines or returns exactly
    # what the row parse returns
    cells = cells + ([] if odd is None else [odd])
    body = "".join(f"{c},{i + 1}\n" for i, c in enumerate(cells))
    fast = timeseries._parse_canonical(body.encode(), 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_text("date,a1\n" + body, encoding="utf-8")
        try:
            rows = timeseries._parse_rows(path, ("a1",))
        except DataError:
            assert fast is None
            return
    if fast is not None:
        assert np.array_equal(fast[0], rows.timestamps)
        assert np.array_equal(fast[1], rows.prices)


@pytest.mark.parametrize("text, ids", [
    ("date,a1,b\r\n2020-01-02,2.5,3\r\n2020-01-01,1.5,4\r\n", ("a1", "b")),
    ("date,Société,b\n2020-01-01,1.5,4\n2020-01-02,2.5,3\n", ("Société", "b")),
], ids=["crlf", "utf8_header"])
def test_load_prices_fast_path_reach(tmp_path, monkeypatch, text, ids):
    # CRLF line ends and a non-ASCII header over an ASCII body stay canonical
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())

    def row_parse(*args):
        raise AssertionError("canonical file fell back to the row parse")

    monkeypatch.setattr(timeseries, "_parse_rows", row_parse)
    s = load_prices(path)
    assert s.asset_ids == ids
    assert np.array_equal(s.timestamps, np.array(["2020-01-01", "2020-01-02"], "datetime64[D]"))
    assert np.array_equal(s.prices, [[1.5, 4.0], [2.5, 3.0]])


_odd_price = st.sampled_from(
    ["1_0", " 1.5 ", "+1", "1e-400", "1e400", "inf", "-inf", "nan", '"1.5"', '"1', "0",
     "-0", "-1", "1.", ".5", "1e5", "0x10", "\t2\t", "\x0c3", "1,", "", " ", "1 2", "٣"]
) | st.text("0123456789.eE+-_ \t\"infa", max_size=8) | st.floats(allow_nan=False).map(repr)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cells=st.lists(_odd_price, min_size=1, max_size=3))
def test_fast_price_read_agrees_with_row_parse(cells):
    # on any price cells the vectorized pass declines or returns exactly
    # what the row parse returns
    body = "".join(f"2020-01-{i + 1:02d},{c}\n" for i, c in enumerate(cells))
    fast = timeseries._parse_canonical(body.encode(), 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_text("date,a1\n" + body, encoding="utf-8")
        try:
            rows = timeseries._parse_rows(path, ("a1",))
        except DataError:
            assert fast is None
            return
    if fast is not None:
        assert np.array_equal(fast[0], rows.timestamps)
        assert fast[1].tobytes() == rows.prices.tobytes()


@pytest.mark.parametrize("text, dates, prices", [
    ("date,a1\n20200101,1.5\n", ["2020-01-01"], [1.5]),
    ('date,a1\n2020-01-01,"1.5"\n', ["2020-01-01"], [1.5]),
    ("date,a1\n2020-01-01, 1.5 \n", ["2020-01-01"], [1.5]),
    ("date,a1\r\n2020-01-02,2.5\r\n2020-01-01,1.5\r\n", ["2020-01-01", "2020-01-02"], [1.5, 2.5]),
    ("date,a1\n2020-01-01,1.5", ["2020-01-01"], [1.5]),
    ("date,a1\n2020-01-01,1_0\n", ["2020-01-01"], [10.0]),
    ("date,a1\n", [], []),
    ("date,a1\n2020-W01-1,1.5\n", ["2019-12-30"], [1.5]),
    ("date,a1\n 2020-01-01 ,1.5\n", ["2020-01-01"], [1.5]),
])
def test_load_prices_accepts_non_canonical(tmp_path, text, dates, prices):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    s = load_prices(path)
    assert np.array_equal(s.timestamps, np.array(dates, dtype="datetime64[D]"))
    assert np.array_equal(s.prices, np.reshape(prices, (-1, 1)))


@pytest.mark.parametrize("text, match", [
    ("date,a1\n2020-01-01,1\n\n", "line 3: expected 2 cells, got 0"),
    ("date,a1\n\n", "line 2: expected 2 cells, got 0"),
    ("date,a1\r\n2020-01-01,1\r\r\n", "line 3: expected 2 cells, got 0"),
    ("date,a1\n2020-01-01,1,2\n", "line 2: expected 2 cells, got 3"),
    ("date,a1,a2\n2020-01-01,1\n", "line 2: expected 3 cells, got 2"),
    ("date,a1\n2020-01,1\n", "line 2: bad date '2020-01'"),
    ("date,a1\nNaT,1\n", "line 2: bad date 'NaT'"),
    ("date,a1\n2020-01-01T00:00,1\n", "line 2: bad date '2020-01-01T00:00'"),
    ("date,a1\n#x,1\n", "line 2: bad date '#x'"),
    ("date,a1\n0000-01-01,1\n", "line 2: bad date '0000-01-01'"),
    ("date,a1\n-999-01-01,1\n", "line 2: bad date '-999-01-01'"),
    ("date,a1\n10000-01-01,1\n", "line 2: bad date '10000-01-01'"),
    ("date,a1\n+020-01-01,1\n", "line 2: bad date '+020-01-01'"),
    ("date,a1\n2020-01-01\0,1\n", "line 2: bad date '2020-01-01\\x00'"),
    ("date,a1\n2023-02-29,1\n", "line 2: bad date '2023-02-29'"),
    ("date,a1\n2020-02-30,1\n", "line 2: bad date '2020-02-30'"),
    ("date,a1\n2020-04-31,1\n", "line 2: bad date '2020-04-31'"),
    ("date,a1\n2020-13-01,1\n", "line 2: bad date '2020-13-01'"),
    ("date,a1\n2020-00-01,1\n", "line 2: bad date '2020-00-01'"),
    ("date,a1\n2020-01-00,1\n", "line 2: bad date '2020-01-00'"),
    ("date,a1\n２０２０-01-01,1\n", "line 2: bad date '２０２０-01-01'"),
    ("date,a1\n2020-1-01,1\n", "line 2: bad date '2020-1-01'"),
    ("date,a1\n2020-01-011,1\n", "line 2: bad date '2020-01-011'"),
    ("date,a1\n2020-01-01,1#x\n", "line 2, column 'a1': bad number '1#x'"),
    ("date,a1\n2020-01-01,nan\n", "line 2, column 'a1': NaN"),
    ("date,a1\n2020-01-01,inf\n", "line 2, column 'a1': price inf not positive"),
])
@pytest.mark.filterwarnings("error")
def test_load_prices_rejects_unusual_file(tmp_path, text, match):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError, match=re.escape(f"{path} {match}")):
        load_prices(path)


def test_load_prices_not_utf8(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"date,a1\n2020-01-01,1\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
        load_prices(path)


@pytest.mark.parametrize("header", ["date,a1", "date,Société"], ids=["ascii", "utf8_header"])
def test_load_prices_not_utf8_names_the_byte_offset(tmp_path, header):
    # past the first 8 KiB too, the position counts from the start of the file
    text = (header + "\n" + "".join(f"2020-01-{d:02d},1\n" for d in range(1, 29))).encode()
    k = 40 * len(text)
    path = tmp_path / "p.csv"
    path.write_bytes(text * 40 + b"\xe4\xb8 2020-02-01,1\n")
    with pytest.raises(DataError) as info:
        load_prices(path)
    assert str(info.value) == (f"{path}: not UTF-8 text: 'utf-8' codec can't decode bytes in "
                               f"position {k}-{k + 1}: invalid continuation byte")


@pytest.mark.parametrize("text, line", [
    ("date,a1\n2020-01-01,1\n2020-01-02," + "1" * 200_000 + "\n", 3),
    ("date," + "a" * 200_000 + "\n2020-01-01,1\n", 1),
    ("date,a1\n2020-01-01,1\n2020-01-02,1." + "0" * 200_000 + "1\n", 3),
], ids=["price", "asset_id", "price_loadtxt_reads"])
def test_load_prices_cell_over_csv_field_limit(tmp_path, text, line):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_prices(path)
    assert str(info.value) == f"{path} line {line}: field larger than field limit (131072)"


def test_load_prices_sorts_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,a1\n2020-01-03,3\n2020-01-01,1\n2020-01-02,2\n")
    s = load_prices(path)
    assert np.array_equal(s.prices[:, 0], [1.0, 2.0, 3.0])


def test_load_prices_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("time,a1\n2020-01-01,1\n")
    with pytest.raises(DataError, match="header must be"):
        load_prices(path)


def test_load_prices_error_names_line_and_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,a1,a2\n2020-01-01,1.0,2.0\n2020-01-02,1.0,oops\n")
    with pytest.raises(DataError, match=r"line 3.*'a2': bad number"):
        load_prices(path)


def test_load_prices_empty_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,a1\n2020-01-01,\n")
    with pytest.raises(DataError, match="line 2.*empty cell"):
        load_prices(path)


def test_load_prices_nonpositive_price(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,a1\n2020-01-01,-3.0\n")
    with pytest.raises(DataError, match="not positive"):
        load_prices(path)


def test_load_prices_duplicate_date(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,a1\n2020-01-01,1\n2020-01-01,2\n")
    with pytest.raises(DataError, match="already on line 2"):
        load_prices(path)


def test_load_prices_bad_date(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,a1\n01/02/2020,1\n")
    with pytest.raises(DataError, match="bad date"):
        load_prices(path)


def _canonical_csv(tmp_path, rng, n, ids, shuffle=False):
    prices = np.exp(rng.standard_normal((n, len(ids))) * 0.01).cumprod(axis=0) * 50.0
    s = PriceSeries(ids, trading_dates(n), prices)
    header, *rows = prices_to_csv(s).splitlines()
    order = rng.permutation(n) if shuffle else range(n)
    path = tmp_path / "p.csv"
    path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("shuffle", [False, True])
def test_loaded_series_and_returns_match_public_constructors(tmp_path, rng, shuffle):
    # load_prices and to_log_returns skip the constructors' checks; what
    # they hold must be what the constructors would have stored
    s = load_prices(_canonical_csv(tmp_path, rng, 300, ("a", "b", "c"), shuffle))
    r = to_log_returns(s)
    for built, name in ((s, "prices"), (r, "returns")):
        public = type(built)(built.asset_ids, built.timestamps, getattr(built, name))
        assert built.asset_ids == public.asset_ids
        for key in ("timestamps", name):
            a, b = getattr(built, key), getattr(public, key)
            assert not a.flags.writeable
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ids", [("a", "b", "c", "d"), ("Société", "中", "c", "d")],
                         ids=["ascii", "utf8_header"])
def test_load_prices_traced_peak_within_twice_the_file(tmp_path, ids):
    # the file is mapped, so no heap buffer of its size is traced: only the
    # arrays built from it (prices are a third of this file, plus the dates)
    # and, for the panel, its returns
    path = _canonical_csv(tmp_path, np.random.default_rng(15), 1 << 15, ids)
    size = path.stat().st_size
    for fn, bound in ((load_prices, 0.75), (cli._load_panel, 2.0)):
        fn(path)
        assert peak_traced_bytes(fn, path) <= bound * size, fn.__name__


def test_row_parse_traced_peak_within_three_times_the_file(tmp_path):
    # YYYYMMDD dates send the file to the row parse, which must not hold
    # every record at once
    path = _canonical_csv(tmp_path, np.random.default_rng(16), 1 << 15, ("a", "b", "c", "d"))
    want = load_prices(path)
    path.write_text(re.sub(r"^(\d{4})-(\d\d)-(\d\d),", r"\1\2\3,", path.read_text(),
                           flags=re.M))
    size = path.stat().st_size
    got = load_prices(path)
    assert np.array_equal(got.timestamps, want.timestamps)
    assert np.array_equal(got.prices, want.prices)
    assert peak_traced_bytes(load_prices, path) <= 3.0 * size


@pytest.mark.parametrize("text", [
    "date,a1,b\r\n2020-01-02,2.5,3\r\n2020-01-01,1.5,4\r\n",
    "date,a1,b\n2020-01-01,1.5,4\n2020-01-02,2.5,3",
    "date,a1,b\n2020-01-01,1.5,4\r2020-01-02,2.5,3\n",
    "date,a1,b\n2020-01-01,1.5,4,\n",
], ids=["crlf", "no_final_newline", "bare_cr", "extra_comma"])
def test_fast_pass_reads_a_map_as_it_reads_bytes(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    start = text.index("\n") + 1
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        from_map = timeseries._parse_canonical(mapped, 2, start)
    from_bytes = timeseries._parse_canonical(text.encode(), 2, start)
    assert (from_map is None) == (from_bytes is None)
    if from_bytes is not None:
        for a, b in zip(from_map, from_bytes):
            assert a.tobytes() == b.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_prices_reads_a_pipe_and_refuses_an_empty_file(tmp_path):
    # neither can be mapped: both are read as bytes
    path = _canonical_csv(tmp_path, np.random.default_rng(18), 64, ("a", "b"))
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        got = load_prices(fifo)
    finally:
        writer.join()
    want = load_prices(path)
    assert np.array_equal(got.timestamps, want.timestamps)
    assert np.array_equal(got.prices, want.prices)
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    with pytest.raises(DataError, match="empty file"):
        load_prices(empty)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_load_prices_row_parses_piped_stdin_from_the_bytes_it_read(tmp_path):
    # quoted dates send piped bytes to the row parse, which cannot read the
    # drained pipe a second time
    path = _canonical_csv(tmp_path, np.random.default_rng(19), 64, ("a", "b"))
    want = load_prices(path)
    text = re.sub(r"^(\d{4}-\d\d-\d\d),", r'"\1",', path.read_text(), flags=re.M)
    quoted = tmp_path / "q.csv"
    quoted.write_bytes(text.replace("\n", "\r\n").encode())
    code = ("from multiscale_markowitz.timeseries import load_prices\n"
            "s = load_prices('/dev/stdin')\n"
            "print(s.timestamps.tobytes().hex(), s.prices.tobytes().hex())\n")
    src = Path(timeseries.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], input=quoted.read_bytes(),
                         capture_output=True, timeout=60, check=True, cwd=src)
    piped = out.stdout.decode().split()
    for s in (want, load_prices(quoted)):
        assert [s.timestamps.tobytes().hex(), s.prices.tobytes().hex()] == piped


def _read_fifo(tmp_path, data: bytes):
    fifo = tmp_path / "bom.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return load_prices(fifo)
    finally:
        writer.join()
        fifo.unlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_prices_drops_a_leading_byte_order_mark(tmp_path, monkeypatch):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF; a quoted date sends
    # a file to the row parse, and a pipe is read as bytes
    plain = _canonical_csv(tmp_path, np.random.default_rng(20), 64, ("a", "b"))
    quoted = tmp_path / "q.csv"
    quoted.write_text(re.sub(r"^(\d{4}-\d\d-\d\d),", r'"\1",', plain.read_text(), flags=re.M))
    want = load_prices(plain)
    row_parse = timeseries._parse_rows
    calls = []

    def spy(*args):
        calls.append(args[0])
        return row_parse(*args)
    monkeypatch.setattr(timeseries, "_parse_rows", spy)
    for src, parse_rows in ((plain, False), (quoted, True)):
        bom = tmp_path / f"bom_{src.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        for got in (load_prices(bom), _read_fifo(tmp_path, bom.read_bytes())):
            assert got.asset_ids == want.asset_ids == ("a", "b")
            assert got.timestamps.tobytes() == want.timestamps.tobytes()
            assert got.prices.tobytes() == want.prices.tobytes()
        assert len(calls) == 2 * parse_rows
    # only one mark is dropped: a second is part of the date cell
    twice = tmp_path / "twice.csv"
    twice.write_bytes(b"\xef\xbb\xbf" * 2 + plain.read_bytes())
    with pytest.raises(DataError, match="header must be"):
        load_prices(twice)


# ---------------------------------------------------------------------------
# prices <-> returns


def test_price_return_round_trip(rng):
    r = rng.standard_normal((50, 2)) * 0.01
    p = panel_from_returns(r)
    back = to_log_returns(to_price_series(p))
    assert back.asset_ids == p.asset_ids
    assert np.allclose(back.returns, p.returns, atol=1e-12)
    assert np.array_equal(back.timestamps, p.timestamps)


def test_to_price_series_prepends_initial():
    p = panel_from_returns(np.array([np.log(2.0)]))
    s = to_price_series(p, initial=10.0)
    assert s.n_periods == 2
    assert s.prices[0, 0] == pytest.approx(10.0)
    assert s.prices[1, 0] == pytest.approx(20.0)


def test_to_log_returns_needs_two_rows():
    s = PriceSeries(("a1",), trading_dates(1), np.array([[1.0]]))
    with pytest.raises(DataError, match="need >= 2 price rows"):
        to_log_returns(s)


# ---------------------------------------------------------------------------
# block sums


def test_aggregate_blocks_phase_zero():
    b = block_sums(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(b[0::2], [3.0, 7.0])


def test_aggregate_blocks_phase_one():
    b = block_sums(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(b[1::2], [5.0])


def test_aggregate_overlapping():
    b = block_sums(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(b, [3.0, 5.0, 7.0])


def test_aggregate_dt_one_is_identity():
    x = np.arange(5.0)
    assert block_sums(x, 1) is x


@pytest.mark.parametrize("dt, message", [
    (0, "scales must be positive integers, got 0"),
    (-1, "scales must be positive integers, got -1"),
    (2.5, "scales must be positive integers, got 2.5"),
    (None, "scales must be positive integers, got None"),
    (6, "scale 6 is longer than the 5 rows to sum"),
])
def test_block_sums_refuse_a_bad_scale(dt, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        block_sums(np.arange(5.0), dt)


def test_block_sums_take_a_whole_float_scale():
    x = np.arange(5.0)
    assert np.array_equal(block_sums(x, 2.0), block_sums(x, 2))
    assert np.array_equal(block_sums(x, 5), [10.0])


def test_aggregate_sums_equal_total_when_blocks_tile():
    # log returns are additive, so tiling blocks preserve the total
    rng = np.random.default_rng(3)
    x = rng.standard_normal(30)
    for dt in (2, 3, 5):
        b = block_sums(x, dt)[0::dt]
        assert b.sum() == pytest.approx(x[: len(b) * dt].sum())


def test_all_phase_lengths():
    b5 = block_sums(np.arange(5.0), 2)
    assert [len(b5[p::2]) for p in range(2)] == [2, 2]
    b10 = block_sums(np.arange(10.0), 3)
    assert [len(b10[p::3]) for p in range(3)] == [3, 3, 2]


def test_all_phase_dt_one():
    # at dt = 1 the single phase is the whole two-column input
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(block_sums(x, 1)[0::1], x)
    assert min_phase_rows(4, 1) == 4


def test_min_phase_rows_matches_actual_minimum():
    for n in range(6, 40):
        x = np.arange(float(n))
        for dt in (1, 2, 3, 5):
            b = block_sums(x, dt)
            assert min_phase_rows(n, dt) == min(len(b[p::dt]) for p in range(dt))


def test_min_phase_rows_overlapping_keeps_every_start():
    for n in range(6, 40):
        for dt in (1, 2, 3, 5):
            assert min_phase_rows(n, dt, timeseries.MODE_OVERLAPPING) == len(
                block_sums(np.arange(float(n)), dt))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(10, 60), dt=st.integers(2, 5), data=st.data())
def test_aggregate_rows_are_exact_block_sums(n, dt, data):
    phase = data.draw(st.integers(0, dt - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, 2))
    b = block_sums(x, dt)
    assert b.shape == (n - dt + 1, 2)
    blocks = b[phase::dt]
    assert len(blocks) == (n - phase) // dt
    for k in range(len(blocks)):
        lo = phase + k * dt
        assert np.allclose(blocks[k], x[lo : lo + dt].sum(axis=0), atol=1e-12)


def test_phase_panels_partition_interior_rows():
    # every base row index appears in exactly one block of each phase,
    # and across phases each interior row is covered dt times
    x = np.arange(12.0)
    dt = 3
    b = block_sums(x, dt)
    total = sum(b[p::dt].sum() for p in range(dt))
    # edge rows are covered fewer times; check coverage counts directly
    counts = np.zeros(12)
    for phase in range(dt):
        k = (12 - phase) // dt
        for j in range(k):
            counts[phase + j * dt : phase + (j + 1) * dt] += 1
    assert counts.max() == dt
    expected = (counts * np.arange(12.0)).sum()
    assert total == pytest.approx(expected)
