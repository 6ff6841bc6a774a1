"""Output checker for every benchmark call.

The reference values are the documented closed forms (README, analytic.py
docstring), evaluated here and not through ``qif.analytic`` so that the
reference stays outside the traced layers.  For a Gaussian source of width
w and mean mu, beam splitter t (r = sqrt(1 - t^2)), relative kick delta and
relative phase alpha of arm B against arm A, and K = exp(-delta^2 / 4w^2):

    P_C,D   = (1 -+ 2 t r cos(alpha) K) / 2
    <p>_C,D = mu_A + delta (r^2 -+ t r cos(alpha) K) / (2 P_C,D)

where mu_A is the source mean plus the kicks on arm A.
"""

import io
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

DARK_THRESHOLD = 1e-15
UNITARITY_TOL = 1e-9
CONSERVATION_TOL = 1e-8
GRID_TOL = 1e-9
ORACLE_TOL = 1e-12
SHIFT_TOL = 1e-9
BEC_DIFF_TOL = 1e-12
FIDELITY_FLOOR = 1.0 - 1e-6
GRID_N = 4096
CSV_HEADER = b"t,delta,alpha,p_c,mean_c,p_d,mean_d,residual\n"

# CODATA 2018, for the feasibility reference.
HBAR = 1.054571817e-34
ELECTRON_MASS = 9.109383702e-31
ELEMENTARY_CHARGE = 1.602176634e-19


def closed_form(t, delta, alpha=0.0, width=1.0, mean=0.0):
    """(P_C, <p>_C, P_D, <p>_D); a mean is nan where its port is dark."""
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    r = np.sqrt(1.0 - t * t)
    cross = t * r * np.cos(alpha) * np.exp(-delta * delta / (4.0 * width * width))
    p_c = (1.0 - 2.0 * cross) / 2.0
    p_d = (1.0 + 2.0 * cross) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_c = np.where(p_c > DARK_THRESHOLD, mean + delta * (r * r - cross) / (2.0 * p_c), np.nan)
        mean_d = np.where(p_d > DARK_THRESHOLD, mean + delta * (r * r + cross) / (2.0 * p_d), np.nan)
    return p_c, mean_c, p_d, mean_d


@dataclass(frozen=True)
class Outcome:
    """What one CLI call produced.

    ``code`` is the return value of ``main`` or the ``SystemExit`` code;
    ``exc`` names an exception that escaped ``main``; ``csv`` holds the
    bytes of the file a sweep wrote.
    """

    code: object
    out: str
    err: str
    exc: Optional[str] = None
    csv: Optional[bytes] = None


class _Bad(Exception):
    """An output that does not match the reference."""


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol


def _exit(o: Outcome, codes) -> Optional[str]:
    if o.exc is not None:
        return f"uncaught {o.exc}"
    if o.code not in codes:
        return f"exit {o.code!r}, expected {' or '.join(map(str, codes))}"
    if o.code != 0 and not o.err.strip():
        return f"exit {o.code} without a message"
    return None


def _lines(o: Outcome, n: int):
    lines = o.out.splitlines()
    if len(lines) != n:
        raise _Bad(f"{len(lines)} output lines, expected {n}")
    return lines


def _match(pattern: str, line: str):
    m = re.fullmatch(pattern, line)
    if m is None:
        raise _Bad(f"unexpected line {line[:80]!r}")
    return m


def _near(what: str, got: float, want: float, tol: float):
    if not _close(got, want, tol):
        raise _Bad(f"{what} = {got!r}, expected {want!r} within {tol:g}")


_PORT_RE = r"(?:port|select) ([ACD]): P = (\S+), (?:<p> = (\S+)|<p> undefined \(dark(?: port)?\))"


def _port_line(line: str, port: str, p_want: float, mean_want: float):
    m = _match(_PORT_RE, line)
    if m.group(1) != port:
        raise _Bad(f"reported port {m.group(1)}, expected {port}")
    _near("P", float(m.group(2)), p_want, GRID_TOL)
    _near("<p>", float("nan") if m.group(3) is None else float(m.group(3)), mean_want, GRID_TOL)


def _simulate(call, o):
    e = call.expect
    p_c, m_c, p_d, m_d = (float(x) for x in closed_form(e["t"], e["delta"], e["alpha"],
                                                         e["width"], e["mean"]))
    lines = _lines(o, 2)
    p, mean = (p_c, m_c) if e["port"] == "C" else (p_d, m_d)
    _port_line(lines[0], e["port"], p, mean)
    residual = float(_match(r"conservation residual = (\S+)", lines[1]).group(1))
    if not residual <= CONSERVATION_TOL:
        raise _Bad(f"conservation residual {residual!r}")


def _bec(call, o):
    e = call.expect
    p_c, m_c, _, _ = (float(x) for x in closed_form(e["t"], e["delta"]))
    lines = _lines(o, 3)
    eff = float(_match(r"t = .*\(effective delta = (\S+)\)", lines[0]).group(1))
    _near("effective delta", eff, e["delta"], GRID_TOL)
    _port_line(lines[1], "A", p_c, m_c)
    diff = float(_match(r"max nodewise \|protocol - interferometer port C\| = (\S+)",
                        lines[2]).group(1))
    if not diff <= BEC_DIFF_TOL:
        raise _Bad(f"protocol differs from port C by {diff!r}")


def _feasibility(call, o):
    e = call.expect
    energy = e["energy_kev"] * 1e3 * ELEMENTARY_CHARGE
    momentum = math.sqrt(2.0 * ELECTRON_MASS * energy)
    speed = momentum / ELECTRON_MASS
    tof = e["drift_m"] / speed
    sigma0 = e["slit_um"] * 1e-6 / 2.0
    spread = HBAR * tof / (2.0 * ELECTRON_MASS * sigma0 * sigma0)
    width = HBAR / (2.0 * sigma0)
    kick = (ELEMENTARY_CHARGE * e["voltage_mv"] * 1e-3 / (e["plate_sep_mm"] * 1e-3)
            * e["plate_len_cm"] * 1e-2 / speed)
    want = [("electron speed", speed, 6), ("electron momentum", momentum, 6),
            ("time of flight", tof, 6),
            ("beam width after drift", sigma0 * math.sqrt(1.0 + spread * spread) * 1e6, 4),
            ("momentum width W", width, 6), ("capacitor kick delta", kick, 6),
            ("kick-to-width ratio", kick / width, 6)]
    lines = _lines(o, 8)
    for line, (label, value, digits) in zip(lines, want):
        m = _match(re.escape(label) + r" += (\S+)(?: [a-z/ ]+)?", line)
        _near(label, float(m.group(1)), value, abs(value) * 10.0 ** (1 - digits))
    _match(r"\(context: grating interferometer path separation 55 um at 0\.35 m\)", lines[7])


def _sweep(call, o, tol, residual_tol):
    e = call.expect
    lines = _lines(o, 2)
    _match(r"wrote .*" + re.escape(e["out"]), lines[0])
    m = _match(r"min mean_C = (\S+) at t = (\S+), delta = (\S+)", lines[1])
    data = o.csv
    if data is None or not data.startswith(CSV_HEADER):
        raise _Bad("CSV header missing")
    if b"\r" in data:
        raise _Bad("CSV has CR line endings")
    rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    ts = np.linspace(*e["t"])
    ds = np.linspace(*e["delta"])
    if rows.shape != (len(ts) * len(ds), 8):
        raise _Bad(f"CSV shape {rows.shape}, expected {(len(ts) * len(ds), 8)}")
    if not (np.array_equal(rows[:, 0], np.repeat(ts, len(ds)))
            and np.array_equal(rows[:, 1], np.tile(ds, len(ts)))
            and np.all(rows[:, 2] == e["alpha"])):
        raise _Bad("CSV rows are not the t-major (t, delta, alpha) grid")
    want = closed_form(rows[:, 0], rows[:, 1], e["alpha"])
    for col, ref, name in zip((3, 4, 5, 6), want, ("p_c", "mean_c", "p_d", "mean_d")):
        got = rows[:, col]
        dev = np.where(np.isnan(ref) & np.isnan(got), 0.0, np.abs(got - ref))
        if not np.all(dev <= tol):
            i = int(np.argmax(np.where(np.isnan(dev), np.inf, dev)))
            raise _Bad(f"{name} row {i + 1}: {got[i]!r}, expected {ref[i]!r} within {tol:g}")
    if not np.all(np.abs(rows[:, 3] + rows[:, 5] - 1.0) <= UNITARITY_TOL):
        raise _Bad("P_C + P_D - 1 out of tolerance")
    if not np.all(rows[:, 7] <= residual_tol):
        raise _Bad("conservation residual out of tolerance")
    i = int(np.nanargmin(rows[:, 4]))
    if (float(m.group(1)), float(m.group(2)), float(m.group(3))) != (rows[i, 4], rows[i, 0], rows[i, 1]):
        raise _Bad("reported minimum is not the CSV minimum")


def _oracle_check(call, o):
    e = call.expect
    lines = _lines(o, 2)
    m = _match(r"samples = (\d+), seed = (\d+), grid n = (\d+)", lines[0])
    if tuple(map(int, m.groups())) != (e["samples"], e["seed"], GRID_N):
        raise _Bad(f"header {lines[0]!r}")
    dev = float(_match(r"max \|oracle - grid\| = (\S+) at t = .*", lines[1]).group(1))
    if not dev <= GRID_TOL:
        raise _Bad(f"oracle deviation {dev!r}")


def _propagate(call, o):
    e = call.expect
    delta = e["force"] * e["tau"]
    lines = _lines(o, 4)
    _match(rf"F = \S+, tau = \S+, substeps = {e['substeps']}, mass = \S+", lines[0])
    _near("intended kick", float(_match(r"intended kick delta = F\*tau = (\S+)",
                                        lines[1]).group(1)), delta, SHIFT_TOL)
    _near("measured shift", float(_match(r"measured mean shift = (\S+)",
                                         lines[2]).group(1)), delta, SHIFT_TOL)
    fidelity = float(_match(r"kick fidelity vs exact shift = (\S+)", lines[3]).group(1))
    if not FIDELITY_FLOOR <= fidelity <= 1.0 + 1e-12:
        raise _Bad(f"kick fidelity {fidelity!r}")


def check(call, o: Outcome) -> Optional[str]:
    """None if the call behaved as documented, else the reason it failed."""
    kind = call.kind
    if kind == "parse_error":
        bad = _exit(o, (2,))
        return bad or (None if re.search(r"line \d+", o.err) else "parse error without a line")
    if kind == "alias":
        return _exit(o, (3,))
    if kind in ("oor_bs_t", "oor_width"):
        return _exit(o, (2, 3))
    if kind == "wrap_corner" and o.exc is None and o.code == 3:
        return _exit(o, (3,))
    bad = _exit(o, (0,))
    if bad:
        return bad
    if o.err:
        return f"unexpected stderr {o.err[:80]!r}"
    body = {"simulate": _simulate, "dark": _simulate, "wrap_corner": _simulate,
            "bec": _bec, "feasibility": _feasibility,
            "sweep_oracle": lambda c, x: _sweep(c, x, ORACLE_TOL, ORACLE_TOL),
            "sweep_grid": lambda c, x: _sweep(c, x, GRID_TOL, CONSERVATION_TOL),
            "oracle_check": _oracle_check, "propagate": _propagate}[kind]
    try:
        body(call, o)
    except (_Bad, ValueError) as exc:
        return str(exc)
    return None
