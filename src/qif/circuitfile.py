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
kicks/phases, then recombine, select, report(s).  Every rule is written
once, in the table _INSTRUCTIONS; what an instruction requires first is
derived from its stages.
"""

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from . import interferometer as mzi
from . import wavepacket as wp
from .errors import CircuitRuntimeError, QifError

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_TOKEN_RE = re.compile(r"\S+")

# The grammar, one row per instruction in pipeline order: its stage (stages
# must be non-decreasing), whether it may appear only once, and its keys.  A
# key takes one of a tuple of words, or a number that must also pass the
# check the run applies (None: any finite number), so a bad value is refused
# at its token in the run's wording.  report's tuple lists the bare words it takes.
_INSTRUCTIONS = {
    "source": (0, True, {"width": lambda w: wp.GaussianParams(width=w), "mean": None}),
    "bs": (1, True, {"t": mzi.BeamSplitterCoeffs}),
    "kick": (2, False, {"path": ("A", "B"), "delta": None}),
    "phase": (2, False, {"path": ("A", "B"), "alpha": None}),
    "recombine": (3, True, {}),
    "select": (4, True, {"port": ("C", "D")}),
    "report": (5, False, ("moments", "wavefunction", "conservation")),
}
# what each instruction requires first: the latest once-only one of an earlier stage
_NEEDS = {name: ([None] + [other for other, (s, once, _) in _INSTRUCTIONS.items()
                           if once and s < stage])[-1]
          for name, (stage, _, _) in _INSTRUCTIONS.items()}


class ParseError(QifError):
    """Syntax or structure error, pointing at the offending token."""

    def __init__(self, message, line, column=1, token=""):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


@dataclass(frozen=True)
class Instruction:
    name: str
    args: dict
    line: int = field(default=0, compare=False)  # equality ignores source positions


def _token_error(message, line, line_no, i, skip=0):
    """ParseError at the i-th token of line, skip characters in; it names the rest of the token."""
    token = list(_TOKEN_RE.finditer(line))[i]
    return ParseError(message, line_no, token.start() + 1 + skip, token.group()[skip:])


def _parse_value(check, key, raw):
    """The value raw of key; a refusal is a ValueError with its message."""
    if isinstance(check, tuple):
        if raw not in check:
            raise ValueError(f"{key} must be {' or '.join(check)}")
        return raw
    if not _NUMBER_RE.match(raw):
        raise ValueError(f"malformed number for {key}: {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"number out of range for {key}: {raw!r}")
    if check is not None:
        check(value)  # its ParameterError is a ValueError
    return value


def _parse_line(line, tokens, line_no):
    name = tokens[0]  # str.split() splits at the whitespace that _TOKEN_RE's \S+ stops at
    if name not in _INSTRUCTIONS:
        raise _token_error(f"unknown instruction {name!r}", line, line_no, 0)
    schema = _INSTRUCTIONS[name][2]

    if isinstance(schema, tuple):  # report: a single bare kind token
        if len(tokens) != 2:
            raise _token_error("report takes exactly one kind", line, line_no, 0)
        if tokens[1] not in schema:
            raise _token_error(f"report kind must be one of {', '.join(schema)}",
                               line, line_no, 1)
        return Instruction(name, {"kind": tokens[1]}, line_no)

    args = {}
    for i, raw in enumerate(tokens[1:], 1):
        key, eq, value = raw.partition("=")
        if not eq:
            raise _token_error(f"expected key=value, got {raw!r}", line, line_no, i)
        if key not in schema:
            raise _token_error(f"unknown key {key!r} for {name}", line, line_no, i)
        if key in args:
            raise _token_error(f"duplicate key {key!r}", line, line_no, i)
        try:
            args[key] = _parse_value(schema[key], key, value)
        except ValueError as exc:
            raise _token_error(str(exc), line, line_no, i, len(key) + 1) from None
    if len(args) != len(schema):
        missing = sorted(set(schema) - set(args))
        raise _token_error(f"missing key {missing[0]!r} for {name}", line, line_no, 0)
    return Instruction(name, args, line_no)


def _validate(instructions):
    if not instructions or instructions[0].name != "source":
        line = instructions[0].line if instructions else 1
        raise ParseError("missing source", line)
    seen = set()
    stage = 0
    for ins in instructions:
        s, once, _ = _INSTRUCTIONS[ins.name]
        if once:
            if ins.name in seen:
                raise ParseError(f"duplicate {ins.name}", ins.line)
            seen.add(ins.name)
        if s < stage:
            raise ParseError(f"{ins.name} out of order", ins.line)
        stage = s
        need = _NEEDS[ins.name]
        if need is not None and need not in seen:
            raise ParseError(f"{ins.name} requires {need} first", ins.line)


def parse(text: str) -> tuple:
    """Parse program text into its instructions; raises ParseError with line/column on failure."""
    instructions = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            instructions.append(_parse_line(line, tokens, line_no))
    _validate(instructions)
    return tuple(instructions)


def serialize(program: tuple) -> str:
    """Canonical text form; parse(serialize(p)) == p. Comments are not kept."""
    lines = []
    for ins in program:
        if ins.name == "report":
            lines.append(f"report {ins.args['kind']}")
        else:
            parts = [ins.name]
            for key in _INSTRUCTIONS[ins.name][2]:
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


def execute(program: tuple, grid: wp.GridSpec) -> ExecutionResult:
    """Run a parsed program on grid.

    Deterministic: identical program and grid give bit-identical results.
    Runtime failures (aliasing, dark-port moments, ports that break unitarity
    or conservation) are reported with the line number of the instruction.
    """
    result = ExecutionResult()
    wf = None            # before bs
    state = None         # between bs and recombine
    kick_total = {"A": 0.0, "B": 0.0}

    for ins in program:
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
                out_c, out_d = result.outcome_c, result.outcome_d = mzi.exit_ports(state)
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
