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
#: The CSV row after its t, delta and alpha heads; "%.17g" is format(x, ".17g").
CSV_CELLS = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
#: Largest t x delta surface a sweep computes (about 1 GB of surface arrays).
MAX_SWEEP_CELLS = 10 ** 7


def _grid(args) -> wp.GridSpec:
    n = args.grid_n
    if n is None:
        raw = os.environ.get("QIF_GRID_N", str(wp.DEFAULT_N))
        try:
            n = int(raw)
        except ValueError:
            raise ParameterError(f"QIF_GRID_N must be an integer, got {raw!r}") from None
    return wp.default_grid(n)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def cmd_simulate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    program = circuitfile.parse(text)
    result = circuitfile.execute(program, _grid(args))
    if result.report:
        print(result.report)
    return EXIT_OK


def _grid_stats(t, delta, alpha, grid):
    """run_mzi per cell on one Gaussian, as the PortStats that stats_grid returns."""
    gauss = wp.gaussian_init(wp.GaussianParams(), grid)
    t, delta, alpha = np.broadcast_arrays(t, delta, alpha)
    stats = np.empty((4, t.size))
    for i, cell in enumerate(zip(t.flat, delta.flat, alpha.flat)):
        out_c, out_d = mzi.run_mzi(gauss, *cell)
        stats[:, i] = out_c.probability, out_c.mean_p, out_d.probability, out_d.mean_p
    return mzi.PortStats(*stats.reshape((4,) + t.shape))


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
        stats = _grid_stats(tt, dd, args.alpha, grid)
        tolerance = mzi.CONSERVATION_TOLERANCE
    residual = mzi.check_ports(*stats, tt, dd, tolerance=tolerance)
    # streamed one t row at a time; each delta, alpha pair is formatted once
    heads = ["%.17g,%.17g," % (d, args.alpha) for d in dd[0].tolist()]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, t in enumerate(ts.tolist()):
            t_head = "%.17g," % t
            rows = zip(heads, zip(*(column[i].tolist() for column in (*stats, residual))))
            fh.write("".join([t_head + head + CSV_CELLS % cell for head, cell in rows]))
    # the first minimum in t-major order; a dark cell's nan never wins
    m_c = stats.mean_c
    i = np.argmin(np.where(np.isnan(m_c), np.inf, m_c))
    best = (m_c.flat[i], tt.flat[i], dd.flat[i])
    if not best[0] < np.inf:
        best = (np.inf, np.nan, np.nan)
    print(f"wrote {args.out}")
    print(f"min mean_C = {_fmt(best[0])} at t = {_fmt(best[1])}, delta = {_fmt(best[2])}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.samples < 0:
        raise ParameterError(f"--samples must be non-negative, got {args.samples}")
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
    devs = np.nanmax(np.abs(oracle - _grid_stats(*samples.T, grid)), axis=0)
    i = np.argmax(devs)
    worst, worst_at = devs[i], samples[i]
    print(f"samples = {args.samples}, seed = {args.seed}, grid n = {grid.n_points}")
    print(f"max |oracle - grid| = {worst:.3e} at t = {worst_at[0]:.6f}, "
          f"delta = {worst_at[1]:.6f}, alpha = {worst_at[2]:.6f}")
    return EXIT_OK


def cmd_propagate(args) -> int:
    grid = _grid(args)
    pulse = splitstep.ImpulsePulse(args.force, args.tau, args.substeps)
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
        diff = np.max(np.abs(outcome.wavefunction.amplitudes * np.sqrt(outcome.probability)
                             - out_c.wavefunction.amplitudes * np.sqrt(out_c.probability)))
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
