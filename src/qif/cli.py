"""Command-line interface.

Subcommands:
    simulate     run a .qif circuit file
    sweep        t/delta parameter sweep to CSV (oracle or grid backend)
    oracle-check compare closed forms against the grid on random parameters
    propagate    split-step impulsive-kick demo
    feasibility  SI-unit electron-scenario report
    bec          internal-state protocol run
    batch        run one of the commands above per line of a file

Exit codes: 0 success, 2 circuit parse error, 3 runtime error.
"""

import argparse
import contextlib
import functools
import os
import re
import shlex
import sys

# qif's one BLAS call, np.vdot in the wrap test, runs single-threaded up to n = 10,000 anyway,
# so no OpenBLAS worker need start and spin through the numpy import; a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import analytic, circuitfile, feasibility, interferometer as mzi
from . import spinor, splitstep, sweepcsv, wavepacket as wp
from .errors import ParameterError, QifError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RUNTIME = 3

#: Largest t x delta surface a sweep computes (about 1 GB of surface arrays).
MAX_SWEEP_CELLS = 10 ** 7


def cmd_simulate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    program = circuitfile.parse(text)
    result = circuitfile.execute(program, wp.default_grid(args.grid_n))
    if result.report:
        print(result.report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    for name, value in zip(("--t LO", "--t HI", "--delta LO", "--delta HI", "--alpha"),
                           (*args.t[:2], *args.delta[:2], args.alpha)):
        if not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    # an oracle sweep uses no grid, so it ignores --grid-n
    grid = wp.default_grid(args.grid_n) if args.backend == "grid" else None
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
    mzi.BeamSplitterCoeffs(ts)  # refuses the first t outside [0, 1], as a per-t loop would
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
        sweepcsv.write_sweep_csv(fh, ts, dd[0], args.alpha, (*stats, residual))
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
    grid = wp.default_grid(args.grid_n)
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
    grid = wp.default_grid(args.grid_n)
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
    gauss = wp.gaussian_init(wp.GaussianParams(), wp.default_grid(args.grid_n))
    outcome = spinor.run_protocol(gauss, args.t, args.delta_a, args.delta_b)
    delta = args.delta_b - args.delta_a
    print(f"t = {args.t}, delta_a = {args.delta_a}, delta_b = {args.delta_b} "
          f"(effective delta = {delta:.12g})")
    if outcome.is_dark:
        print(f"select A: P = {outcome.probability:.12g}, <p> undefined (dark)")
    else:
        print(f"select A: P = {outcome.probability:.12g}, <p> = {outcome.mean_p:.12g}")
    if args.check_mzi:
        state = mzi.apply_kick(mzi.split(gauss, mzi.BeamSplitterCoeffs(args.t)), delta)
        out_c = mzi.port_stats(gauss.grid, mzi.recombine(state)[0], "C")  # run_mzi's port C
        raw = [o.wavefunction.amplitudes * (1.0 if o.is_dark else np.sqrt(o.probability))
               for o in (outcome, out_c)]  # a dark outcome already holds the raw amplitudes
        diff = np.max(np.abs(raw[0] - raw[1]))
        print(f"max nodewise |protocol - interferometer port C| = {diff:.3e}")
    return EXIT_OK


def cmd_batch(args) -> int:
    worst = EXIT_OK
    with (contextlib.nullcontext(sys.stdin) if args.file == "-"
          else open(args.file, encoding="utf-8")) as fh:
        for number, line in enumerate(fh, 1):
            try:
                argv = [] if line.lstrip().startswith("#") else shlex.split(line)
                if argv[:1] == ["batch"]:
                    raise ValueError("a batch cannot run batch")
            except ValueError as exc:  # or shlex's: an unbalanced quote, a trailing backslash
                print(f"{args.file}: line {number}: {exc}", file=sys.stderr)
                worst = max(worst, EXIT_PARSE)
                continue
            try:
                worst = max(worst, main(argv) if argv else EXIT_OK)
            except SystemExit as exc:  # argparse's help or usage error ends only its line
                if exc.code == EXIT_RUNTIME:  # main's, for a broken pipe: argparse exits 0 or 2
                    raise
                worst = max(worst, exc.code)
            sys.stdout.flush()  # as a process's exit does: a later line's stderr comes after
    return worst


_GRID_N = ("--grid-n", dict(type=int, default=wp.DEFAULT_N))
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
    "batch": ("one qif command per line of a file", cmd_batch, (
        ("file", dict(help="one argv per line in shell quoting, '-' for stdin; blank and # lines "
                      "are skipped. Lines share the grid of the last --grid-n only.")),)),
}


#: argparse reads only -12 and -1.5 as numbers, so -1e-3 would be an option; no qif option
#: starts with - and a digit.  -inf and -nan stay options.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _add_arguments(parser, name) -> argparse.ArgumentParser:
    parser._negative_number_matcher = _NEGATIVE_NUMBER  # private; 3.11 has no public setting
    for flag, kwargs in SUBCOMMANDS[name][2]:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=SUBCOMMANDS[name][1], command=name)
    return parser


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of a subcommand's exact name, "qif <name>"; else the full qif parser.

    The full parser answers everything else (no argument, -h, an unknown or
    abbreviated name) and, through parse_args, every unrecognized argument.
    Each parser is built once per process and shared, with its defaults (func
    among them) fixed when it is built: do not modify it.
    """
    return _build_parser(command if command in SUBCOMMANDS else None)


@functools.lru_cache(maxsize=None)  # keyed on a subcommand's name or None: at most one each
def _build_parser(command) -> argparse.ArgumentParser:
    if command is not None:
        return _add_arguments(argparse.ArgumentParser(prog=f"qif {command}"), command)
    parser = argparse.ArgumentParser(prog="qif", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The namespace of argv; help, usage and errors are the full parser's text."""
    if argv and argv[0] in SUBCOMMANDS:
        args, stray = build_parser(argv[0]).parse_known_args(argv[1:])
        if not stray:
            return args
    # the full parser prints stray arguments under its own usage
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
        finally:  # argparse prints help or a usage error and exits: its text is flushed here
            sys.stdout.flush()
        prefix = getattr(args, "file", "error")  # errors in a circuit name its file
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at the interpreter's exit
        return code
    except BrokenPipeError as exc:  # a reader left: the process ends, a batch's later lines too
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # what stdout holds would fail the exit's flush: send it nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(EXIT_RUNTIME)
    except (QifError, UnicodeDecodeError) as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, circuitfile.ParseError) else EXIT_RUNTIME
    except (OSError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
