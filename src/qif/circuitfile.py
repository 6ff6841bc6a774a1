"""Line-oriented experiment-description language (.qif files).

One instruction per line, `name key=value ...`; `#` starts a comment and
blank lines are ignored.  The instruction set mirrors the interferometer
pipeline:

    source width=1 mean=0
    bs t=0.85
    kick path=B delta=0.2
    phase path=B alpha=0
    recombine
    select port=C
    report moments

Numbers are plain decimals with an optional exponent; units are W for
momenta and radians for phases.  A bs t outside [0, 1] or a source width
that is not positive is a parse error at its token.  Duplicate keys are an
error (silent override would hide experiment mistakes), and instructions
must appear in pipeline order: one source first, then one bs, any
kicks/phases, then recombine, select, report(s).
"""

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from . import interferometer as mzi
from . import wavepacket as wp
from .errors import CircuitRuntimeError, ParameterError, QifError

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_TOKEN_RE = re.compile(r"\S+")

REPORT_KINDS = ("moments", "wavefunction", "conservation")

# key schema per instruction; None marks a bare-word argument (report kind)
_SCHEMAS = {
    "source": {"width": "positive", "mean": "number"},
    "bs": {"t": "unit"},
    "kick": {"path": "path", "delta": "number"},
    "phase": {"path": "path", "alpha": "number"},
    "recombine": {},
    "select": {"port": "port"},
    "report": None,
}


class ParseError(QifError):
    """Syntax or structure error, pointing at the offending token."""

    def __init__(self, message, line, column=1, token=""):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


# range kinds: numbers that must also pass the check the run applies, so a
# bad value is refused at its token, in the run's wording
_RANGE_CHECKS = {"unit": mzi.BeamSplitterCoeffs,
                 "positive": lambda width: wp.GaussianParams(width=width)}


@dataclass(frozen=True)
class Instruction:
    name: str
    args: dict
    line: int = field(default=0, compare=False)  # equality ignores source positions


@dataclass(frozen=True)
class CircuitProgram:
    instructions: tuple


def _parse_value(kind, key, raw, line_no, column):
    if kind == "number" or kind in _RANGE_CHECKS:
        if not _NUMBER_RE.match(raw):
            raise ParseError(f"malformed number for {key}: {raw!r}", line_no, column, raw)
        value = float(raw)
        if not math.isfinite(value):
            raise ParseError(f"number out of range for {key}: {raw!r}", line_no, column, raw)
        if kind in _RANGE_CHECKS:
            try:
                _RANGE_CHECKS[kind](value)
            except ParameterError as exc:
                raise ParseError(str(exc), line_no, column, raw) from None
        return value
    if kind == "path":
        if raw not in ("A", "B"):
            raise ParseError("path must be A or B", line_no, column, raw)
        return raw
    if kind == "port":
        if raw not in ("C", "D"):
            raise ParseError("port must be C or D", line_no, column, raw)
        return raw
    raise AssertionError(kind)


def _parse_line(line, line_no):
    tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
    name, name_col = tokens[0]
    if name not in _SCHEMAS:
        raise ParseError(f"unknown instruction {name!r}", line_no, name_col, name)
    schema = _SCHEMAS[name]

    if schema is None:  # report: single bare kind token
        if len(tokens) != 2:
            raise ParseError("report takes exactly one kind", line_no, name_col, name)
        kind, col = tokens[1]
        if kind not in REPORT_KINDS:
            raise ParseError(
                f"report kind must be one of {', '.join(REPORT_KINDS)}",
                line_no, col, kind,
            )
        return Instruction(name, {"kind": kind}, line_no)

    args = {}
    for raw, col in tokens[1:]:
        if "=" not in raw:
            raise ParseError(f"expected key=value, got {raw!r}", line_no, col, raw)
        key, _, value = raw.partition("=")
        if key not in schema:
            raise ParseError(f"unknown key {key!r} for {name}", line_no, col, raw)
        if key in args:
            raise ParseError(f"duplicate key {key!r}", line_no, col, raw)
        args[key] = _parse_value(schema[key], key, value, line_no, col + len(key) + 1)
    missing = sorted(set(schema) - set(args))
    if missing:
        raise ParseError(f"missing key {missing[0]!r} for {name}", line_no, name_col, name)
    return Instruction(name, args, line_no)


# pipeline stage per instruction; stages must be non-decreasing
_STAGE = {"source": 0, "bs": 1, "kick": 2, "phase": 2, "recombine": 3,
          "select": 4, "report": 5}
_ONCE = ("source", "bs", "recombine", "select")
# the instruction each one needs earlier in the program
_REQUIRES = {"kick": "bs", "phase": "bs", "recombine": "bs", "select": "recombine",
             "report": "select"}


def _validate(instructions):
    if not instructions or instructions[0].name != "source":
        line = instructions[0].line if instructions else 1
        raise ParseError("missing source", line)
    seen = set()
    stage = 0
    for ins in instructions:
        if ins.name in _ONCE:
            if ins.name in seen:
                raise ParseError(f"duplicate {ins.name}", ins.line)
            seen.add(ins.name)
        s = _STAGE[ins.name]
        if s < stage:
            raise ParseError(f"{ins.name} out of order", ins.line)
        stage = max(stage, s)
        need = _REQUIRES.get(ins.name)
        if need is not None and need not in seen:
            raise ParseError(f"{ins.name} requires {need} first", ins.line)


def parse(text: str) -> CircuitProgram:
    """Parse program text; raises ParseError with line/column on failure."""
    instructions = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        if not stripped.strip():
            continue
        instructions.append(_parse_line(stripped, line_no))
    _validate(instructions)
    return CircuitProgram(tuple(instructions))


def serialize(program: CircuitProgram) -> str:
    """Canonical text form; parse(serialize(p)) == p. Comments are not kept."""
    lines = []
    for ins in program.instructions:
        if ins.name == "report":
            lines.append(f"report {ins.args['kind']}")
        else:
            parts = [ins.name]
            for key in _SCHEMAS[ins.name]:
                value = ins.args[key]
                parts.append(f"{key}={value!r}" if isinstance(value, float)
                             else f"{key}={value}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@dataclass
class ExecutionResult:
    """Structured outcome of a program run plus the printable report."""

    outcome_c: Optional[mzi.PortOutcome] = None
    outcome_d: Optional[mzi.PortOutcome] = None
    selected: Optional[mzi.PortOutcome] = None
    conservation_residual: Optional[float] = None
    lines: list = field(default_factory=list)

    @property
    def report(self) -> str:
        return "\n".join(self.lines)


def execute(program: CircuitProgram, grid: Optional[wp.GridSpec] = None) -> ExecutionResult:
    """Run a parsed program on the given grid (default 4096-point grid).

    Deterministic: identical program and grid give bit-identical results.
    Runtime failures (aliasing, dark-port moments, ports that break unitarity
    or conservation) are reported with the line number of the instruction.
    """
    if grid is None:
        grid = wp.default_grid()
    result = ExecutionResult()
    wf = None            # before bs
    state = None         # between bs and recombine
    kick_total = {"A": 0.0, "B": 0.0}

    for ins in program.instructions:
        try:
            if ins.name == "source":
                wf = wp.gaussian_init(
                    wp.GaussianParams(width=ins.args["width"], mean=ins.args["mean"]),
                    grid,
                )
                source_mean = ins.args["mean"]
            elif ins.name == "bs":
                bs_t = ins.args["t"]
                state = mzi.split(wf, mzi.BeamSplitterCoeffs(bs_t))
            elif ins.name == "kick":
                path, delta = ins.args["path"], ins.args["delta"]
                kick_total[path] += delta
                state = mzi.kick(state, path, delta)
            elif ins.name == "phase":
                state = mzi.phase(state, ins.args["path"], ins.args["alpha"])
            elif ins.name == "recombine":
                raw_c, raw_d = mzi.recombine(state)
                out_c = result.outcome_c = mzi.port_stats(grid, raw_c, "C")
                out_d = result.outcome_d = mzi.port_stats(grid, raw_d, "D")
                # arm A's kick moves the input's mean; delta is B's kick relative to A's
                result.conservation_residual = float(mzi.check_ports(
                    out_c.probability, out_c.mean_p, out_d.probability, out_d.mean_p, bs_t,
                    kick_total["B"] - kick_total["A"], source_mean + kick_total["A"]))
            elif ins.name == "select":
                result.selected = (result.outcome_c if ins.args["port"] == "C"
                                   else result.outcome_d)
            elif ins.name == "report":
                _run_report(ins.args["kind"], result)
        except QifError as exc:
            raise CircuitRuntimeError(f"{ins.name}: {exc}", ins.line) from exc
    return result


def _run_report(kind, result):
    sel = result.selected
    if kind == "moments":
        if sel.is_dark:
            result.lines.append(
                f"port {sel.port}: P = {sel.probability:.12g}, <p> undefined (dark port)"
            )
        else:
            result.lines.append(
                f"port {sel.port}: P = {sel.probability:.12g}, <p> = {sel.mean_p:.12g}"
            )
    elif kind == "conservation":
        result.lines.append(f"conservation residual = {result.conservation_residual:.12g}")
    elif kind == "wavefunction":
        amp = sel.wavefunction.amplitudes
        p = sel.wavefunction.grid.p
        result.lines.append(f"port {sel.port} wavefunction ({len(p)} nodes): p re im")
        result.lines.extend(
            f"{pk:.17g} {ak.real:.17g} {ak.imag:.17g}" for pk, ak in zip(p, amp)
        )
