"""The two-mode state, its primitive operations, and the Mach-Zehnder pipeline.

A two-mode state holds a grid and a plain amplitude array per mode.  The
modes are the arms A and B of a spatial interferometer, or the internal
states |A> and |B> of an atom (see spinor).  Every pipeline is built from the
same per-mode primitives, kick, phase and select, plus a mixer for each kind
of beam splitter.  They read and return arrays; checked wavefunctions are
built only at the source and at the ports (port_stats).

Conventions: the first beam splitter has real transmission t and reflection
i*r with r = sqrt(1 - t^2); the second beam splitter is fixed balanced with
coefficients 1/sqrt(2) (transmission) and i/sqrt(2) (reflection).  An
unobservable global phase on port D is dropped.

Grid runs and the closed forms in analytic report one PortStats record.
Every run keeps P_C + P_D = 1 and the momentum balance of the two arms:
conservation_residual writes the balance, and check_ports judges both
invariants against their named limits, for one run or a whole surface.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import wavepacket as wp
from .errors import ParameterError, QifError
from .wavepacket import DARK_THRESHOLD, MomentumWavefunction

_SQRT2 = np.sqrt(2.0)
_MODE_FIELDS = {"A": "path_a", "B": "path_b"}

#: Limits on |P_C + P_D - 1| and on the momentum residual (grid runs, closed forms).
UNITARITY_TOLERANCE = 1e-9
CONSERVATION_TOLERANCE = 1e-8
ORACLE_CONSERVATION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BeamSplitterCoeffs:
    """Transmission t in [0, 1]; reflection r = sqrt(1 - t^2), phase i."""

    t: float

    def __post_init__(self):  # t may be a column of cells: its first bad one, flat, is named
        inside = (0.0 <= self.t) & (self.t <= 1.0)
        if not wp.all_cells(inside):
            bad = self.t.flat[np.argmin(inside)] if isinstance(inside, np.ndarray) else self.t
            raise ParameterError(f"transmission must lie in [0, 1], got {bad}")

    @property
    def r(self) -> float:
        return np.sqrt(1.0 - self.t * self.t)


class TwoPathState(NamedTuple):
    """Momentum amplitudes of modes A and B on one grid.

    The modes are interferometer arms or internal atomic states, each a row or a
    stack of rows.  States may share arrays: only an out array is written in place.
    """

    grid: wp.GridSpec
    path_a: np.ndarray
    path_b: np.ndarray


class PortOutcome(NamedTuple):
    """Post-selection result at one exit port.

    mean_p is nan for a dark port (probability below threshold), where the
    conditional average is undefined.
    """

    port: str
    probability: float
    wavefunction: MomentumWavefunction
    mean_p: float

    @property
    def is_dark(self) -> bool:
        return math.isnan(self.mean_p)


class PortStats(NamedTuple):
    """P_C, <p>_C, P_D, <p>_D (units of W) for one run or a surface; nan marks a dark port."""

    p_c: float
    mean_c: float
    p_d: float
    mean_d: float


def split(input_wf: MomentumWavefunction, bs: BeamSplitterCoeffs, out=(None, None)):
    """First beam splitter into out: arm A gets t*Phi, arm B gets i*r*Phi, a row per t."""
    amp, t = input_wf.amplitudes, np.asarray(bs.t, complex)  # a real column would be buffered
    return TwoPathState(input_wf.grid, np.multiply(t, amp, out=out[0]),
                        np.multiply(1j * bs.r, amp, out=out[1]))


def _mode_field(mode: str) -> str:
    if mode not in _MODE_FIELDS:
        raise ParameterError(f"mode must be A or B, got {mode!r}")
    return _MODE_FIELDS[mode]


def kick(state: TwoPathState, mode: str, delta, out=None, image=None) -> TwoPathState:
    """Impulsive momentum kick of one mode: Phi(p) -> Phi(p - delta), into out if given;
    image is the mode's position-space image (GridSpec.p_to_z) if it is made already."""
    amp = wp.shift(state.grid, getattr(state, _mode_field(mode)), delta, out, image)
    return _with_mode(state, mode, amp)


def phase(state: TwoPathState, mode: str, alpha, out=None) -> TwoPathState:
    """Multiply one mode by e^(i alpha), into out if given; alpha must be finite.  alpha may
    be a column (a phase per stack row) or a p-row (a p-dependent phase such as e^(i p d))."""
    name = _mode_field(mode)
    if not wp.all_cells(np.isfinite(alpha)):  # refused before numpy builds e^(i alpha) and warns
        raise ParameterError(f"phase alpha must be finite, got {alpha}")
    # e stays on the left: x *= e computes x * e, which can round apart.  numpy's loop for a
    # column is slow, so a column multiplies each row by its own scalar, which rounds alike.
    e, amp = np.exp(1j * alpha), getattr(state, name)
    if amp.ndim == 2 and e.shape == (len(amp), 1):
        out = np.empty_like(amp) if out is None else out
        rows = list(amp)  # in place, a row is its own output: numpy runs two views of it slower
        for x, row, row_out in zip(e[:, 0], rows, rows if out is amp else out):
            np.multiply(x, row, out=row_out)
        return _with_mode(state, mode, out)
    return _with_mode(state, mode, np.multiply(e, amp, out=out))


def _with_mode(state: TwoPathState, mode: str, amp) -> TwoPathState:
    return (TwoPathState(state.grid, amp, state.path_b) if mode == "A"
            else TwoPathState(state.grid, state.path_a, amp))


def select(state: TwoPathState, mode: str) -> PortOutcome:
    """Post-select one mode; the outcome is labelled with mode."""
    return port_stats(state.grid, getattr(state, _mode_field(mode)), mode)


def apply_kick(state: TwoPathState, delta, alpha=0.0, out=None, image=None) -> TwoPathState:
    """Impulsive kick in arm B: shift by delta and multiply by e^(i alpha), into out if given;
    image as for kick."""
    return phase(kick(state, "B", delta, out, image), "B", alpha, out)


def recombine(state: TwoPathState, out=(None, None, None)):
    """Second (balanced) beam splitter.

    Returns the raw, unnormalized port amplitudes
        raw_c = (a + i b) / sqrt(2),   raw_d = (a - i b) / sqrt(2),
    which for a state prepared by split + apply_kick reduce to
        raw_c = (t Phi(p) - r e^(i alpha) Phi(p - delta)) / sqrt(2)
    and the + counterpart at port D.  Pointwise unitary, so the two port
    norms add up to the total input norm.  out names arrays for i b, a + i b and
    a - i b, and the ports go to its first two: (path_b, free, path_a) works in place.
    """
    a, ib = state.path_a, np.multiply(1j, state.path_b, out=out[0])
    plus, minus = np.add(a, ib, out=out[1]), np.subtract(a, ib, out=out[2])
    return _divide(plus, _SQRT2, out[0]), _divide(minus, _SQRT2, out[1])


def _divide(z, s, out=None):
    """Complex z / real s bit for bit, by a multiply where that agrees: numpy divides as
    (re + im 0, im - re 0) (1/s), which the parts of z times 1/s miss only in the sign of
    a zero, so only the elements with a zero part take numpy's division.  out must not be z."""
    parts = np.multiply(z.view(np.float64), 1.0 / s,
                        out=None if out is None else out.view(np.float64))
    quotient = parts.view(complex)
    if not parts.all():
        i = np.unravel_index(np.flatnonzero(parts == 0) // 2, z.shape)
        quotient[i] = z[i] / np.broadcast_to(s, z.shape)[i]
    return quotient


def exit_ports(state: TwoPathState):
    """Second beam splitter, then post-selection at ports C and D: two PortOutcomes."""
    raw_c, raw_d = recombine(state)
    return port_stats(state.grid, raw_c, "C"), port_stats(state.grid, raw_d, "D")


def port_stats(grid: wp.GridSpec, raw: np.ndarray, port: str) -> PortOutcome:
    """Probability, normalized wavefunction and conditional mean of port amplitudes raw."""
    prob, mean, amp = port_moments(grid, raw)
    return PortOutcome(port, float(prob), MomentumWavefunction(grid, amp), float(mean))


def port_moments(grid: wp.GridSpec, raw: np.ndarray, out=(None, None)):
    """P, <p> (nan where dark) and the normalized amplitudes (raw if a row is dark) of each
    row of raw; out takes the amplitudes and |raw|^2."""
    square = np.abs(raw, out=out[1])
    square **= 2
    prob = square.sum(axis=-1) * grid.dp  # norm, as wavepacket.norm sums it
    bright = prob >= DARK_THRESHOLD
    if not wp.all_cells(bright):
        mean = np.where(bright, 0.0, np.nan)
        if bright.any():  # a stack's bright rows, on their own
            mean[bright] = port_moments(grid, raw[bright])[1]
        return prob, mean, raw
    normalized = _divide(raw, np.sqrt(prob)[..., None] if prob.ndim else np.sqrt(prob), out[0])
    return prob, wp.first_moment(grid, normalized, square), normalized


def conservation_residual(p_c, mean_c, p_d, mean_d, t, delta, mean_in=0.0):
    """|P_C <p>_C + P_D <p>_D - (t^2 mean_in + r^2 (mean_in + delta))|, broadcast.

    The post-selected averages, weighted by their probabilities, must
    reproduce the unconditional momentum balance of the two arms.  A nan
    mean marks a dark port, which carries no momentum.
    """
    moment = (np.where(np.isnan(mean_c), 0.0, p_c * mean_c)
              + np.where(np.isnan(mean_d), 0.0, p_d * mean_d))
    return np.abs(moment - (t * t * mean_in + (1.0 - t * t) * (mean_in + delta)))


def check_ports(p_c, mean_c, p_d, mean_d, t, delta, mean_in=0.0,
                tolerance=CONSERVATION_TOLERANCE):
    """The residual of every cell, or QifError at the first (t-major) that fails.

    Unitarity is judged before conservation.  The residual rounds like
    4e-16 |delta|, so past |delta| = 100 the conservation limit grows with it.
    The checks fail closed: a nan sum or residual is refused.
    """
    residual = conservation_residual(p_c, mean_c, p_d, mean_d, t, delta, mean_in)
    unitary = np.abs(np.add(p_c, p_d) - 1.0) <= UNITARITY_TOLERANCE
    good = unitary & (residual <= tolerance * np.maximum(1.0, np.abs(delta) / 100.0))
    if not wp.all_cells(good):  # t and delta are broadcast only to name the failing cell
        t, delta, unitary, good = np.broadcast_arrays(t, delta, unitary, good)
        i = np.argmin(good)
        broken = "conservation" if unitary.flat[i] else "unitarity"
        raise QifError(f"{broken} violated at t={t.flat[i]}, delta={delta.flat[i]}")
    return residual


def run_mzi(input_wf: MomentumWavefunction, t: float, delta: float, alpha: float = 0.0):
    """Full pipeline: split, kick arm B, recombine, post-select both ports."""
    return exit_ports(apply_kick(split(input_wf, BeamSplitterCoeffs(t)), delta, alpha))


#: Bytes of one stack array in stats_grid: 6 rows at n = 4096, one row from n = 16384 on.
STACK_BYTES = 6 * 4096 * 16


def stats_grid(input_wf: MomentumWavefunction, t, delta, alpha=0.0) -> PortStats:
    """run_mzi's P and <p> at each cell of broadcast t, delta, alpha, as analytic.stats_grid.

    Cells run in stacks of rows, a step being one ufunc or FFT call a stack, with run_mzi's
    operands in its order, so each row rounds as its cell; numpy's FFT of a stack costs
    about 30% less a row at n = 4096.  A row holds cells of one t (see _blocks), so a block
    of rows with several steps takes arm B to position space once: each step splits again
    and kicks its cells from that image; on a surface whose t axis fills the stack, a step's
    cells share a delta and so one kick ramp.  Two traps: numpy's AVX-512 complex multiply
    is not operand-symmetric, and x *= e computes x * e, so phase keeps e on the left; and a
    stack array is past glibc's 128 KiB mmap threshold, so the complex work arrays are made
    once a call, in one allocation (made per stack, they cost 30 times the page faults and
    ran 11% slower; made apart, glibc trims the heap after each sweep call).  A block that
    refuses defers to a t-major run_mzi loop: its first refusal is raised.
    """
    grid = input_wf.grid
    t, delta, alpha = np.broadcast_arrays(t, delta, alpha)
    stats = np.empty((4, t.size))
    height = max(1, min(t.size, STACK_BYTES // (16 * grid.n_points)))
    blocks = _blocks(t, delta, height)
    several = any(len(steps) > 1 for steps in blocks)  # then arm B's image outlives a step
    arm_a, arm_b, work, *image = np.empty((3 + several, height, grid.n_points), dtype=complex)
    square = np.empty((height, grid.n_points))
    try:  # only the beam splitter and the kicks refuse
        for steps in blocks:
            rows = steps[0].size
            a, b, w, sq = (x[:rows] for x in (arm_a, arm_b, work, square))
            tk = t.flat[steps[0]][:, None]
            bs = BeamSplitterCoeffs(tk)
            split(input_wf, bs, (a, b))
            z = grid.p_to_z(b, image[0][:rows]) if len(steps) > 1 else None
            for k, cells in enumerate(steps):
                if cells.size < rows:  # a later step's live rows lead the block; one view
                    rows = cells.size  # each, as numpy is quicker when an operand is its output
                    a, b, w, sq, z = (x[:rows] for x in (a, b, w, sq, z))
                    bs = BeamSplitterCoeffs(tk[:rows])
                if k:  # the step before wrote over both arms
                    split(input_wf, bs, (a, b))
                dk, ak = (x.flat[cells][:, None] for x in (delta, alpha))
                state = apply_kick(TwoPathState(grid, a, b), dk, ak, b, z)
                for port, raw in enumerate(recombine(state, (b, w, a))):
                    stats[2 * port:2 * port + 2, cells] = port_moments(grid, raw, (a, sq))[:2]
    except QifError:
        for i in range(t.size):
            run_mzi(input_wf, t.flat[i], delta.flat[i], alpha.flat[i])
        raise
    return PortStats(*stats.reshape((4,) + t.shape))


def _blocks(t, delta, height):
    """The flat cells of broadcast t and delta as blocks of at most height rows, each block a
    list of steps: the cells of its live rows, one a row, rows in order.

    A row's cells share a t, told apart by its bits (-0.0 is not 0.0), and lie in stable
    delta order, its k-th cell in step k.  A repeated t gets as many rows as lets the stacks
    stay full and deals its cells over them round-robin.  Rows go longest first, so the live
    rows of a step lead its block, and rows of one length in the stable delta order of their
    first cells: distinct t run as cells in stable delta order, and a step of a surface whose
    t axis fills the stack shares one delta.
    """
    order = np.argsort(delta, axis=None, kind="stable")
    by_value = np.sort(t, axis=None)
    if (by_value[1:] != by_value[:-1]).all():  # no t repeats: the grouping's answer, without
        return [[order[i:i + height]] for i in range(0, order.size, height)]  # its numpy calls
    keys = t.flat[order]
    keys = keys.view((np.void, keys.itemsize))
    by_t = np.argsort(keys, kind="stable")  # by_t[i]: the delta rank of the i-th cell by t
    new_t = np.flatnonzero(keys[by_t[1:]] != keys[by_t[:-1]]) + 1
    order = order[by_t]  # a t's cells together
    sizes = np.diff(new_t, prepend=0, append=order.size)
    # a t takes min(its cells, per) rows, per the most that keeps them within height (or 1):
    # with the j fewest-celled t a row a cell, the rest can take (height - their cells) // rest
    fewest = np.sort(sizes)
    most = (height - np.cumsum(fewest) + fewest) // (sizes.size - np.arange(sizes.size))
    per = np.minimum(sizes, max(1, np.minimum(fewest, most).max()))
    k = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # index in its t
    dealt = np.repeat(per, sizes)
    row, step = np.repeat(np.cumsum(per) - per, sizes) + k % dealt, k // dealt
    length = np.bincount(row)
    first = np.empty_like(length)
    first[row[step == 0]] = by_t[step == 0]
    place = np.empty_like(length)
    place[np.lexsort((first, -length))] = np.arange(length.size)
    block, slot = np.divmod(place[row], height)
    by_step = np.lexsort((slot, step, block))
    block, step = block[by_step], step[by_step]
    cut = np.flatnonzero((np.diff(block) != 0) | (np.diff(step) != 0)) + 1
    blocks = [[] for _ in range(block[-1] + 1)]
    for b, cells in zip(block[np.r_[0, cut]], np.split(order[by_step], cut)):
        blocks[b].append(cells)
    return blocks
