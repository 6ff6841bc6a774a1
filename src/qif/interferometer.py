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

from dataclasses import dataclass, replace
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

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ParameterError(f"transmission must lie in [0, 1], got {self.t}")

    @property
    def r(self) -> float:
        return float(np.sqrt(1.0 - self.t * self.t))


@dataclass(frozen=True)
class TwoPathState:
    """Momentum amplitudes of modes A and B on one grid.

    The modes are interferometer arms or internal atomic states.  States
    may share arrays: no operation writes one in place.
    """

    grid: wp.GridSpec
    path_a: np.ndarray
    path_b: np.ndarray


@dataclass(frozen=True)
class PortOutcome:
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
        return bool(np.isnan(self.mean_p))


class PortStats(NamedTuple):
    """P_C, <p>_C, P_D, <p>_D (units of W) for one run or a surface; nan marks a dark port."""

    p_c: float
    mean_c: float
    p_d: float
    mean_d: float


def split(input_wf: MomentumWavefunction, bs: BeamSplitterCoeffs) -> TwoPathState:
    """First beam splitter: arm A gets t*Phi, arm B gets i*r*Phi."""
    amp = input_wf.amplitudes
    return TwoPathState(input_wf.grid, bs.t * amp, 1j * bs.r * amp)


def _mode_field(mode: str) -> str:
    if mode not in _MODE_FIELDS:
        raise ParameterError(f"mode must be A or B, got {mode!r}")
    return _MODE_FIELDS[mode]


def kick(state: TwoPathState, mode: str, delta: float) -> TwoPathState:
    """Impulsive momentum kick of one mode: Phi(p) -> Phi(p - delta)."""
    name = _mode_field(mode)
    return replace(state, **{name: wp.shift_amplitudes(state.grid, getattr(state, name), delta)})


def phase(state: TwoPathState, mode: str, alpha: float) -> TwoPathState:
    """Multiply one mode by e^(i alpha); alpha must be finite."""
    name = _mode_field(mode)
    if not np.isfinite(alpha):  # refused before numpy builds e^(i alpha) and warns
        raise ParameterError(f"phase alpha must be finite, got {alpha}")
    return replace(state, **{name: np.exp(1j * alpha) * getattr(state, name)})


def select(state: TwoPathState, mode: str) -> PortOutcome:
    """Post-select one mode; the outcome is labelled with mode."""
    return port_stats(state.grid, getattr(state, _mode_field(mode)), mode)


def apply_kick(state: TwoPathState, delta: float, alpha: float = 0.0) -> TwoPathState:
    """Impulsive kick in arm B: shift by delta and multiply by e^(i alpha)."""
    return phase(kick(state, "B", delta), "B", alpha)


def recombine(state: TwoPathState):
    """Second (balanced) beam splitter.

    Returns the raw, unnormalized port amplitudes
        raw_c = (a + i b) / sqrt(2),   raw_d = (a - i b) / sqrt(2),
    which for a state prepared by split + apply_kick reduce to
        raw_c = (t Phi(p) - r e^(i alpha) Phi(p - delta)) / sqrt(2)
    and the + counterpart at port D.  Pointwise unitary, so the two port
    norms add up to the total input norm.
    """
    a, ib = state.path_a, 1j * state.path_b
    return _divide(a + ib, _SQRT2), _divide(a - ib, _SQRT2)


def _divide(z, s):
    """Complex z / real s bit for bit, by a multiply where that agrees: numpy divides as
    (re + im 0, im - re 0) (1/s), which z (1/s) misses only in the sign of a zero."""
    out = z * (1.0 / s)
    return out if out.view(np.float64).all() else z / s


def exit_ports(state: TwoPathState):
    """Second beam splitter, then post-selection at ports C and D: two PortOutcomes."""
    raw_c, raw_d = recombine(state)
    return port_stats(state.grid, raw_c, "C"), port_stats(state.grid, raw_d, "D")


def port_stats(grid: wp.GridSpec, raw: np.ndarray, port: str) -> PortOutcome:
    """Probability, normalized wavefunction and conditional mean of port amplitudes raw."""
    prob, mean, amp = port_moments(grid, raw)
    return PortOutcome(port, prob, MomentumWavefunction(grid, amp), mean)


def port_moments(grid: wp.GridSpec, raw: np.ndarray):
    """P, <p> and the normalized amplitudes of one port; a dark port keeps raw, <p> nan."""
    prob = float(np.sum(np.abs(raw) ** 2) * grid.dp)  # norm, as wavepacket.norm sums it
    if prob < DARK_THRESHOLD:
        return prob, np.nan, raw
    normalized = _divide(raw, np.sqrt(prob))
    return prob, wp.first_moment(grid, normalized), normalized


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
    t, delta, p_sum, residual = np.broadcast_arrays(t, delta, np.add(p_c, p_d), residual)
    not_unitary = ~(np.abs(p_sum - 1.0) <= UNITARITY_TOLERANCE)
    unbalanced = ~(residual <= tolerance * np.maximum(1.0, np.abs(delta) / 100.0))
    bad = np.flatnonzero(not_unitary | unbalanced)
    if bad.size:
        i = bad[0]
        broken = "unitarity" if not_unitary.flat[i] else "conservation"
        raise QifError(f"{broken} violated at t={t.flat[i]}, delta={delta.flat[i]}")
    return residual


def run_mzi(input_wf: MomentumWavefunction, t: float, delta: float, alpha: float = 0.0):
    """Full pipeline: split, kick arm B, recombine, post-select both ports."""
    return exit_ports(apply_kick(split(input_wf, BeamSplitterCoeffs(t)), delta, alpha))


def stats_grid(input_wf: MomentumWavefunction, t, delta, alpha=0.0) -> PortStats:
    """run_mzi's P and <p> at each cell of broadcast t, delta, alpha, as analytic.stats_grid.

    Cells run in stable delta order, so one kick ramp serves a delta column;
    a refusal is the one a t-major run_mzi loop meets first.
    """
    grid = input_wf.grid
    t, delta, alpha = np.broadcast_arrays(t, delta, alpha)
    stats, refused = np.empty((4, t.size)), None
    for i in np.argsort(delta, axis=None, kind="stable").tolist():
        if refused is not None and i > refused[0]:
            continue
        try:
            state = apply_kick(split(input_wf, BeamSplitterCoeffs(t.flat[i])),
                               delta.flat[i], alpha.flat[i])
        except QifError as exc:
            refused = i, exc
            continue
        stats[:, i] = [m for raw in recombine(state) for m in port_moments(grid, raw)[:2]]
    if refused is not None:
        raise refused[1]
    return PortStats(*stats.reshape((4,) + t.shape))
