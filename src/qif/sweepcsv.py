"""The sweep CSV: a header and one row of "%.17g" fields per (t, delta) cell.

format_17g writes each float64 as the bytes of "%.17g" % value, on 64-bit
words in numpy; write_sweep_csv lays a sweep's surfaces out as CSV rows,
CSV_CHUNK values at a time.
"""

import numpy as np

from .interferometer import PortStats

CSV_HEADER = ",".join(("t", "delta", "alpha", *PortStats._fields, "residual"))
#: Most values write_sweep_csv passes to format_17g at once: it bounds the writer's buffers.
CSV_CHUNK = 4096


def _split(a):
    """Veltkamp's split: a = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_P10 = 10.0 ** np.arange(23)  # each an exact double
_P10_HI, _P10_LO = _split(_P10)


def _times_p10(a, s):
    """a 10^s near [1e16, 1e17), rounded half to even to an integer: it is formed exactly
    as hi + lo (Dekker's product; 10^s is exact for s <= 22), and hi >= 1e16 > 2^53 is
    even, so lo rounded half to even rounds hi + lo so too."""
    a_hi, a_lo = _split(a)
    hi = a * _P10[s]
    lo = ((a_hi * _P10_HI[s] - hi) + a_hi * _P10_LO[s] + a_lo * _P10_HI[s]) + a_lo * _P10_LO[s]
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digit_words(v):
    """The 8 decimal digits of each uint64 v < 10^8 as bytes, most significant first in
    memory: 4-digit halves in 32-bit lanes, 2-digit quarters in 16-bit lanes, then bytes.
    With q = v // b in each lane, (v << w) - q (b 2^w - 1) puts q in the low half and
    v - b q in the high one, and no lane carries into the next."""
    q = (v * 109951163) >> 40  # v // 10^4 for v < 10^8
    v = (v << 32) - q * ((10000 << 32) - 1)
    q = (v * 5243) >> 19 & 0x7F0000007F  # v // 100 in each lane < 10^4
    v = (v << 16) - q * ((100 << 16) - 1)
    q = (v * 103) >> 10 & 0xF000F000F000F  # v // 10 in each lane < 100
    return (v << 8) - q * ((10 << 8) - 1)


def _words(texts):
    """Each text NUL-padded to 24 bytes, as (3, len(texts)) little-endian row words."""
    return np.frombuffer(b"".join([t.ljust(24, b"\0") for t in texts]), "<u8").reshape(-1, 3).T


#: Word tables are (3, rows).  _END[:, e] keeps the first e bytes of a row.  For each
#: decimal exponent k in [-4, 15], %.17g puts _POINT after the first _HEAD bytes of a
#: row [sign, d0 .. d16] and moves the later digits up by its width.
_END = _words([b"\xff" * e for e in range(25)])
_POINT = [b"." if k >= 0 else b"0." + b"0" * (-k - 1) for k in range(-4, 16)]
_HEAD = [k + 2 if k >= 0 else 1 for k in range(-4, 16)]
_KEEP, _INSERT = _END[:, _HEAD], _words([b"\0" * h + p for h, p in zip(_HEAD, _POINT)])
_WIDTH = np.array([len(p) for p in _POINT])
_SHIFT = 8 * _WIDTH.astype(np.uint64)


def _exact_words(x):
    """format_17g's rows of x, each |x| in [1e-4, 1e16), as (3, len(x)) row words."""
    a = np.abs(x)
    k = np.floor(np.log10(a)).astype(np.intp)
    d = _times_p10(a, 16 - k)
    redo = np.flatnonzero((d >= 10 ** 17) | (d < 10 ** 16))  # where log10 missed by one
    if redo.size:
        k[redo] += np.where(d[redo] < 10 ** 16, -1, 1)
        d[redo] = _times_p10(a[redo], 16 - k[redo])
    d = d.view(np.uint64)
    q = d // 10 ** 8
    lead = q // 10 ** 8
    digits = _digit_words(np.stack([q - lead * 10 ** 8, d - q * 10 ** 8]))
    # digits up to the highest nonzero byte; no byte exceeds 9, so the float of the 16
    # bytes after the lead digit rounds within its top byte (+ 0.5: 0 has no bytes)
    size = 1 + (np.frexp(digits[1] * 2.0 ** 64 + digits[0] + 0.5)[1] + 7) // 8
    upper, lower = digits | 0x3030303030303030
    row = np.empty((3, len(x)), np.uint64)
    row[0] = (x.view(np.uint64) >> 63) * ord("-") | (lead | 0x30) << 8 | upper << 16
    row[1] = upper >> 48 | lower << 16
    row[2] = lower >> 48
    # move the digits after the first _HEAD bytes up by the width of the point text
    i = k + 4
    kept = row & _KEEP.take(i, 1)
    row ^= kept
    shift = _SHIFT[i]
    row[1:] = row[1:] << shift | row[:2] >> (64 - shift)
    row[0] <<= shift
    row |= kept | _INSERT.take(i, 1)
    # drop trailing zeros after the point, and the point when no fraction digit is left
    row &= _END.take(np.where(size > k + 1, size + 1 + _WIDTH[i], k + 2), 1)
    return row


def format_17g(x):
    """Each float64 of x as ("%.17g" % value).encode(), in a NUL-padded (len(x), 24) uint8 row.

    A finite |x| in [1e-4, 1e16) is rounded exactly to 17 digits, which are written and
    laid out on 64-bit words.  Any other value is formatted by Python's %, once per
    distinct bit pattern.
    """
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e16)
    inside, rest = np.flatnonzero(exact), np.flatnonzero(~exact)
    out = np.empty((len(x), 3), "<u8")
    out[inside] = _exact_words(x[inside]).T  # the exact path sees only what it formats
    if rest.size:  # sorted by bit pattern, each run formatted once
        bits = x[rest].view(np.int64)
        order = np.argsort(bits, kind="stable")
        first = np.concatenate(([True], np.diff(bits[order]) != 0))  # a wrapped diff is not 0
        texts = [("%.17g" % v).encode() for v in x[rest[order[first]]].tolist()]
        out[rest[order]] = _words(texts).T[np.cumsum(first) - 1]
    return out.view(np.uint8)


def write_sweep_csv(fh, ts, deltas, alpha, columns):
    """Write the header and a row per (t, delta) cell, t-major, to the binary file fh;
    columns are the len(ts) x len(deltas) surfaces after the t, delta and alpha fields."""
    fh.write((CSV_HEADER + "\n").encode())
    heads = [np.concatenate([format_17g(v[i:i + CSV_CHUNK]) for i in range(0, len(v), CSV_CHUNK)])
             for v in (ts, deltas, np.array([alpha]))]
    flats = [np.ravel(column) for column in columns]
    size, step = len(ts) * len(deltas), CSV_CHUNK // len(flats)
    for start in range(0, size, step):
        cell = np.arange(start, min(start + step, size))
        rows = np.empty((cell.size, 3 + len(flats), 25), np.uint8)
        rows[:, :, 24] = ord(",")
        rows[:, -1, 24] = ord("\n")
        rows[:, 0, :24] = heads[0][cell // len(deltas)]
        rows[:, 1, :24] = heads[1][cell % len(deltas)]
        rows[:, 2, :24] = heads[2]
        values = np.stack([flat[start:start + cell.size] for flat in flats], axis=1)
        rows[:, 3:, :24] = format_17g(values.ravel()).reshape(cell.size, -1, 24)
        fh.write(rows.tobytes().translate(None, b"\0"))
