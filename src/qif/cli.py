"""Command-line interface.

Subcommands:
    simulate     run a .qif circuit file
    sweep        t/delta parameter sweep to CSV (oracle or grid backend)
    oracle-check compare closed forms against the grid on random parameters
    propagate    split-step impulsive-kick demo
    feasibility  SI-unit electron-scenario report
    bec          internal-state protocol run

Exit codes: 0 success, 2 circuit parse error, 3 runtime error.  The
environment variable QIF_GRID_N overrides the default grid size (4096).
"""

import argparse
import os
import sys

import numpy as np

from . import analytic, circuitfile, feasibility, interferometer as mzi
from . import spinor, splitstep, wavepacket as wp
from .errors import ParameterError, QifError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RUNTIME = 3

CSV_HEADER = "t,delta,alpha,p_c,mean_c,p_d,mean_d,residual"
#: Most values write_sweep_csv passes to format_17g at once: it bounds the writer's buffers.
CSV_CHUNK = 4096
#: Largest t x delta surface a sweep computes (about 1 GB of surface arrays).
MAX_SWEEP_CELLS = 10 ** 7


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


def _grid(args) -> wp.GridSpec:
    n = args.grid_n
    if n is None:
        raw = os.environ.get("QIF_GRID_N", str(wp.DEFAULT_N))
        try:
            n = int(raw)
        except ValueError:
            raise ParameterError(f"QIF_GRID_N must be an integer, got {raw!r}") from None
    return wp.default_grid(n)


def cmd_simulate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    program = circuitfile.parse(text)
    result = circuitfile.execute(program, _grid(args))
    if result.report:
        print(result.report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    for name, value in zip(("--t LO", "--t HI", "--delta LO", "--delta HI", "--alpha"),
                           (*args.t[:2], *args.delta[:2], args.alpha)):
        if not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    # an oracle sweep uses no grid, so it reads no grid setting
    grid = _grid(args) if args.backend == "grid" else None
    # step counts arrive as floats: refuse nan and inf before int() sees them
    if not all(2 <= steps < np.inf for steps in (args.t[2], args.delta[2])):
        raise ParameterError("sweep needs at least 2 steps per axis")
    for name, (lo, hi, steps) in (("--t", args.t), ("--delta", args.delta)):
        if not steps.is_integer():
            raise ParameterError(f"{name} STEPS must be a whole number, got {steps}")
        if not np.isfinite(hi - lo):
            raise ParameterError(f"{name} span HI - LO overflows from {lo} to {hi}")
    if args.t[2] * args.delta[2] > MAX_SWEEP_CELLS:
        raise ParameterError(f"sweep of {args.t[2]:g} x {args.delta[2]:g} cells exceeds "
                             f"MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}")
    ts = np.linspace(args.t[0], args.t[1], int(args.t[2]))
    for t in ts:
        mzi.BeamSplitterCoeffs(t)
    tt, dd = np.meshgrid(ts, np.linspace(args.delta[0], args.delta[1], int(args.delta[2])),
                         indexing="ij")
    if args.backend == "oracle":
        stats = analytic.stats_grid(tt, dd, args.alpha)
        tolerance = mzi.ORACLE_CONSERVATION_TOLERANCE
    else:
        stats = mzi.stats_grid(wp.gaussian_init(wp.GaussianParams(), grid), tt, dd, args.alpha)
        tolerance = mzi.CONSERVATION_TOLERANCE
    residual = mzi.check_ports(*stats, tt, dd, tolerance=tolerance)
    with open(args.out, "wb") as fh:
        write_sweep_csv(fh, ts, dd[0], args.alpha, (*stats, residual))
    # the first minimum in t-major order; a dark cell's nan never wins
    m_c = stats.mean_c
    i = np.argmin(np.where(np.isnan(m_c), np.inf, m_c))
    best = (m_c.flat[i], tt.flat[i], dd.flat[i])
    if not best[0] < np.inf:
        best = (np.inf, np.nan, np.nan)
    print(f"wrote {args.out}")
    print("min mean_C = %.17g at t = %.17g, delta = %.17g" % best)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.samples < 0:
        raise ParameterError(f"--samples must be non-negative, got {args.samples}")
    if args.samples > np.iinfo(np.intp).max // 24:  # numpy cannot address (samples, 3) floats
        raise ParameterError(f"--samples={args.samples} is too large for a numpy array")
    if args.seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {args.seed}")
    if args.samples == 0:
        print("0 samples: nothing to check")
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    grid = _grid(args)
    samples = rng.uniform((0.05, 0.0, 0.0), (0.95, 2.0, 2.0 * np.pi), size=(args.samples, 3))
    oracle = np.array(analytic.stats_grid(*samples.T))
    # a dark mean is nan on either side and drops out of the sample's maximum
    gauss = wp.gaussian_init(wp.GaussianParams(), grid)
    devs = np.nanmax(np.abs(oracle - mzi.stats_grid(gauss, *samples.T)), axis=0)
    i = np.argmax(devs)
    worst, worst_at = devs[i], samples[i]
    print(f"samples = {args.samples}, seed = {args.seed}, grid n = {grid.n_points}")
    print(f"max |oracle - grid| = {worst:.3e} at t = {worst_at[0]:.6f}, "
          f"delta = {worst_at[1]:.6f}, alpha = {worst_at[2]:.6f}")
    return EXIT_OK


def cmd_propagate(args) -> int:
    pulse = splitstep.ImpulsePulse(args.force, args.tau, args.substeps)  # before any array
    grid = _grid(args)
    config = splitstep.PropagationConfig(mass=args.mass)
    before = wp.to_position(wp.gaussian_init(wp.GaussianParams(), grid))
    after = splitstep.apply_impulse(before, pulse, config)
    fidelity = splitstep.kick_fidelity(before, after, pulse.delta)
    shift_measured = wp.mean_momentum(wp.to_momentum(after)) - wp.mean_momentum(
        wp.to_momentum(before)
    )
    print(f"F = {args.force}, tau = {args.tau}, substeps = {args.substeps}, "
          f"mass = {args.mass}")
    print(f"intended kick delta = F*tau = {pulse.delta:.12g}")
    print(f"measured mean shift = {shift_measured:.12g}")
    print(f"kick fidelity vs exact shift = {fidelity:.12g}")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    scenario = feasibility.ElectronScenario(
        kinetic_energy_ev=args.energy_kev * 1e3,
        slit_width_m=args.slit_um * 1e-6,
        drift_distance_m=args.drift_m,
        plate_separation_m=args.plate_sep_mm * 1e-3,
        plate_length_m=args.plate_len_cm * 1e-2,
        voltage_v=args.voltage_mv * 1e-3,
    )
    report = feasibility.electron_report(scenario)
    print(f"electron speed           = {report.speed:.6g} m/s")
    print(f"electron momentum        = {report.momentum:.6g} kg m/s")
    print(f"time of flight           = {report.time_of_flight:.6g} s")
    print(f"beam width after drift   = {report.beam_width_at_drift * 1e6:.4g} um")
    print(f"momentum width W         = {report.momentum_width:.6g} kg m/s")
    print(f"capacitor kick delta     = {report.kick:.6g} kg m/s")
    print(f"kick-to-width ratio      = {report.ratio:.6g}")
    print(f"(context: grating interferometer path separation "
          f"{feasibility.PATH_SEPARATION_M * 1e6:.0f} um at "
          f"{feasibility.PATH_SEPARATION_DISTANCE_M:.2f} m)")
    return EXIT_OK


def cmd_bec(args) -> int:
    grid = _grid(args)
    outcome = spinor.run_protocol(args.t, args.delta_a, args.delta_b, grid)
    delta = args.delta_b - args.delta_a
    print(f"t = {args.t}, delta_a = {args.delta_a}, delta_b = {args.delta_b} "
          f"(effective delta = {delta:.12g})")
    if outcome.is_dark:
        print(f"select A: P = {outcome.probability:.12g}, <p> undefined (dark)")
    else:
        print(f"select A: P = {outcome.probability:.12g}, <p> = {outcome.mean_p:.12g}")
    if args.check_mzi:
        gauss = wp.gaussian_init(wp.GaussianParams(), grid)
        out_c, _ = mzi.run_mzi(gauss, args.t, delta)
        raw = [o.wavefunction.amplitudes * (1.0 if o.is_dark else np.sqrt(o.probability))
               for o in (outcome, out_c)]  # a dark outcome already holds the raw amplitudes
        diff = np.max(np.abs(raw[0] - raw[1]))
        print(f"max nodewise |protocol - interferometer port C| = {diff:.3e}")
    return EXIT_OK


_GRID_N = ("--grid-n", dict(type=int, default=None))
#: Each subcommand's help, handler and arguments, in the order --help lists them.
SUBCOMMANDS = {
    "simulate": ("run a .qif circuit file", cmd_simulate, (("file", {}), _GRID_N)),
    "sweep": ("t/delta sweep to CSV", cmd_sweep, (
        ("--t", dict(nargs=3, type=float, required=True, metavar=("LO", "HI", "STEPS"))),
        ("--delta", dict(nargs=3, type=float, required=True, metavar=("LO", "HI", "STEPS"))),
        ("--alpha", dict(type=float, default=0.0)),
        ("--backend", dict(choices=("oracle", "grid"), default="oracle")),
        ("--out", dict(required=True)),
        _GRID_N)),
    "oracle-check": ("closed forms vs grid on random parameters", cmd_oracle_check, (
        ("--samples", dict(type=int, default=1000)),
        ("--seed", dict(type=int, required=True)),
        _GRID_N)),
    "propagate": ("split-step impulsive-kick demo", cmd_propagate, (
        ("--force", dict(type=float, default=1.0)),
        ("--tau", dict(type=float, default=0.2)),
        ("--substeps", dict(type=int, default=64)),
        ("--mass", dict(type=float, default=1e4)),
        _GRID_N)),
    "feasibility": ("electron-scenario SI report", cmd_feasibility, (
        ("--energy-kev", dict(type=float, default=6.0)),
        ("--slit-um", dict(type=float, default=1.5)),
        ("--drift-m", dict(type=float, default=1.0)),
        ("--plate-sep-mm", dict(type=float, default=1.0)),
        ("--plate-len-cm", dict(type=float, default=1.0)),
        ("--voltage-mv", dict(type=float, default=0.2)))),
    "bec": ("internal-state protocol run", cmd_bec, (
        ("--t", dict(type=float, required=True)),
        ("--delta-a", dict(type=float, required=True)),
        ("--delta-b", dict(type=float, required=True)),
        ("--check-mzi", dict(action="store_true",
                             help="also compare against the spatial-interferometer run")),
        _GRID_N)),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The qif parser; for a subcommand's exact name, with that subcommand alone.

    Anything else (no argument, -h, an unknown or abbreviated name) gets the
    full parser.  A lone subcommand keeps the full choice list as its
    metavar, so usage and error text are the same either way.
    """
    parser = argparse.ArgumentParser(prog="qif", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    alone = command in SUBCOMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(SUBCOMMANDS) if alone else None)
    for name in (command,) if alone else SUBCOMMANDS:
        help_text, func, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # errors in a circuit are reported against its file name
    prefix = getattr(args, "file", "error")
    try:
        return args.func(args)
    except (QifError, UnicodeDecodeError) as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, circuitfile.ParseError) else EXIT_RUNTIME
    except (OSError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
