"""The sweep CSV writer: format_17g against Python's "%.17g", and whole files
against the per-cell writer it replaced."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qif import cli, sweepcsv


def formatted(values):
    """format_17g's text of each value, its NUL padding dropped."""
    rows = sweepcsv.format_17g(np.asarray(values, dtype=np.float64))
    assert rows.shape == (len(values), 24) and rows.dtype == np.uint8
    return [row[row != 0].tobytes() for row in rows]


def percent(values):
    return [("%.17g" % x).encode() for x in np.asarray(values, dtype=np.float64).tolist()]


def _powers_of_ten():
    powers = np.array([float("1e%d" % e) for e in range(-5, 18)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


EXACTNESS_CASES = {
    "powers_of_ten_and_neighbours": _powers_of_ten(),
    "range_edges": [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0),
                    -1e-4, -np.nextafter(1e16, 0)],
    # 18 significant digits ending in 5: exact ties at 17, rounded half to even
    "odd_q_over_2_to_17": np.arange(2 ** 17 + 1, 10 * 2 ** 17, 2) / 2 ** 17,
    "specials": [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, np.finfo(float).max],
    # below a power of ten: log10 rounds up, and the product rounds onto 1e16 with lo < 0
    "just_below_a_power": [0.09999999999999999, -0.09999999999999999, 9999999999999998.0],
}


@pytest.mark.parametrize("values", EXACTNESS_CASES.values(), ids=EXACTNESS_CASES.keys())
def test_format_17g_is_percent_format(values):
    assert formatted(values) == percent(values)


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=500, deadline=None)
def test_format_17g_is_percent_format_on_any_floats(values):
    assert formatted(values) == percent(values)


def _digits(text):
    """The decimal exponent and the significant-digit count of a %.17g text."""
    value = Decimal(text)
    return value.adjusted(), len(value.normalize().as_tuple().digits)


def _layout_values():
    """For each decimal exponent k in [-4, 15] and digit count n in 1..17, the first
    decimal string m e(k - n + 1), m an n-digit integer, whose %.17g has k and n."""
    values = {}
    for k in range(-4, 16):
        for n in range(1, 18):
            for j in range(1000):
                v = float(f"{10 ** (n - 1) + j * 7919 % (9 * 10 ** (n - 1))}e{k - n + 1}")
                if _digits("%.17g" % v) == (k, n):
                    values[k, n] = v
                    break
    return values


LAYOUTS = _layout_values()
LAYOUT_VALUES = [sign * v for v in LAYOUTS.values() for sign in (1, -1)]
# zero, specials, and values %.17g prints with an exponent
FALLBACK = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -9.999e-5, 1e16, 2.5e-300, 1e300]
# just below a power of ten: floor(log10 |x|) is one too high, so the exact path redoes k
REDO = [sign * np.nextafter(10.0 ** e, 0) for e in range(-4, 16) for sign in (1, -1)]
CHUNKS = {
    "all_exact": LAYOUT_VALUES,
    "all_fallback": FALLBACK,
    "mixed": [v for pair in zip(LAYOUT_VALUES, FALLBACK * 68) for v in pair],
    "mixed_with_redo": [v for trio in zip(REDO, FALLBACK * 4, LAYOUT_VALUES) for v in trio],
}


def test_layouts_cover_every_exponent_and_digit_count():
    assert sorted(LAYOUTS) == [(k, n) for k in range(-4, 16) for n in range(1, 18)]
    redone = [v for v in REDO
              if abs(v) >= 1e-4 and np.floor(np.log10(abs(v))) != _digits("%.17g" % v)[0]]
    assert len(redone) > 20


@pytest.mark.parametrize("values", CHUNKS.values(), ids=CHUNKS.keys())
def test_format_17g_is_percent_format_in_every_layout(values):
    assert formatted(values) == percent(values)


def _digit_texts(values):
    words = sweepcsv._digit_words(np.asarray(values, dtype=np.uint64)) | 0x3030303030303030
    return words.astype("<u8").view("S8").tolist()


def test_digit_words_in_every_lane_value():
    lane = np.arange(10 ** 4)
    for values in (10 ** 4 * lane + lane[::-1], 10 ** 4 * lane[::-1] + lane):
        assert _digit_texts(values) == [b"%08d" % v for v in values.tolist()]


def test_digit_words_on_random_values():
    values = np.random.default_rng(8).integers(0, 10 ** 8, 10 ** 6)
    assert _digit_texts(values) == [b"%08d" % v for v in values.tolist()]


def old_writer(ts, deltas, alpha, columns):
    """The per-cell writer that format_17g replaced: one % format per CSV row."""
    cells = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
    heads = ["%.17g,%.17g," % (d, alpha) for d in deltas.tolist()]
    text = [sweepcsv.CSV_HEADER + "\n"]
    for i, t in enumerate(ts.tolist()):
        rows = zip(heads, zip(*(column[i].tolist() for column in columns)))
        text.append("".join(["%.17g," % t + head + cells % cell for head, cell in rows]))
    return "".join(text).encode()


def sweep(tmp_path, monkeypatch, argv):
    """Run `qif sweep`; return the CSV bytes and the writer's arguments."""
    calls = []
    real = sweepcsv.write_sweep_csv
    monkeypatch.setattr(sweepcsv, "write_sweep_csv",
                        lambda fh, *args: calls.append(args) or real(fh, *args))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
    (args,) = calls
    return out.read_bytes(), args


T_DARK = "0.7071067811865476"  # a balanced splitter: port C is dark at delta = 0
# (t axis, delta axis, extra arguments); a grid sweep runs on a 1024-point grid
CSV_CASES = {
    # 41 x 50 = 2050 cells: two whole chunks of 819 cells and a partial third
    "several_chunks": (["0.05", "0.95", "41"], ["0.01", "2", "50"], ["--alpha", "0.3"]),
    "dark_cells": (["0.5", T_DARK, "3"], ["0", "1", "3"], []),
    # linspace keeps the sign of -0.0 only on a descending axis
    "delta_axis_from_negative_zero": (["0.1", "0.9", "3"], ["-0.0", "-1.5", "4"], []),
    "negative_delta_and_alpha": (["0.2", "0.8", "4"], ["-2", "-0.5", "5"],
                                 ["--alpha", "-1.25"]),
}


@pytest.mark.parametrize("backend", ["oracle", "grid"])
@pytest.mark.parametrize("t, delta, extra", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_csv_bytes_equal_the_old_writer(tmp_path, capsys, monkeypatch, backend, t, delta,
                                        extra):
    argv = ["--t", *t, "--delta", *delta, *extra, "--backend", backend, "--grid-n", "1024"]
    data, args = sweep(tmp_path, monkeypatch, argv)
    assert data == old_writer(*args)
    if delta[0] == "-0.0":
        assert data.splitlines()[1].split(b",")[1] == b"-0"


def test_csv_bytes_equal_the_old_writer_at_delta_1e200(tmp_path, capsys, monkeypatch):
    # an oracle sweep only: the grid backend refuses a kick past its guard
    argv = ["--t", "0.1", "0.5", "3", "--delta", "0", "1e200", "3"]
    data, args = sweep(tmp_path, monkeypatch, argv)
    assert data == old_writer(*args)


def test_formatter_input_never_exceeds_the_chunk(tmp_path, capsys, monkeypatch):
    sizes = []
    real = sweepcsv.format_17g
    monkeypatch.setattr(sweepcsv, "format_17g", lambda x: sizes.append(len(x)) or real(x))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--t", "0.05", "0.95", "200", "--delta", "0.01", "2", "200",
            "--alpha", "0.3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert max(sizes) <= sweepcsv.CSV_CHUNK
    assert sum(sizes) == 200 + 200 + 1 + 5 * 200 * 200  # each axis once, then the surfaces
