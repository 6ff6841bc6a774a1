"""The two-mode state, its primitive operations, and the Mach-Zehnder pipeline.

A two-mode state holds one momentum wavefunction per mode.  The modes are
the arms A and B of a spatial interferometer, or the internal states |A>
and |B> of an atom (see spinor).  Every pipeline is built from the same
per-mode primitives, kick, phase and select, plus a mixer for each kind of
beam splitter.

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
from .errors import GridMismatchError, ParameterError, QifError
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
    """Wavefunctions of modes A and B, on a shared grid.

    The modes are interferometer arms or internal atomic states.
    """

    path_a: MomentumWavefunction
    path_b: MomentumWavefunction

    def __post_init__(self):
        if self.path_a.grid != self.path_b.grid:
            raise GridMismatchError("mode wavefunctions must share a grid")

    def total_norm(self) -> float:
        return wp.norm(self.path_a) + wp.norm(self.path_b)


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
    return TwoPathState(
        path_a=MomentumWavefunction(input_wf.grid, bs.t * amp),
        path_b=MomentumWavefunction(input_wf.grid, 1j * bs.r * amp),
    )


def _mode_field(mode: str) -> str:
    if mode not in _MODE_FIELDS:
        raise ParameterError(f"mode must be A or B, got {mode!r}")
    return _MODE_FIELDS[mode]


def kick(state: TwoPathState, mode: str, delta: float) -> TwoPathState:
    """Impulsive momentum kick of one mode: Phi(p) -> Phi(p - delta)."""
    name = _mode_field(mode)
    return replace(state, **{name: wp.shift(getattr(state, name), delta)})


def phase(state: TwoPathState, mode: str, alpha: float) -> TwoPathState:
    """Multiply one mode by e^(i alpha)."""
    name = _mode_field(mode)
    wf = getattr(state, name)
    turned = MomentumWavefunction(wf.grid, np.exp(1j * alpha) * wf.amplitudes)
    return replace(state, **{name: turned})


def select(state: TwoPathState, mode: str, port: str) -> PortOutcome:
    """Post-select one mode; the outcome is labelled with port."""
    return port_stats(getattr(state, _mode_field(mode)), port)


def apply_kick(state: TwoPathState, delta: float, alpha: float = 0.0) -> TwoPathState:
    """Impulsive kick in arm B: shift by delta and multiply by e^(i alpha)."""
    return phase(kick(state, "B", delta), "B", alpha)


def recombine(state: TwoPathState):
    """Second (balanced) beam splitter.

    Returns the raw, unnormalized port wavefunctions
        raw_c = (a + i b) / sqrt(2),   raw_d = (a - i b) / sqrt(2),
    which for a state prepared by split + apply_kick reduce to
        raw_c = (t Phi(p) - r e^(i alpha) Phi(p - delta)) / sqrt(2)
    and the + counterpart at port D.  Pointwise unitary, so
    norm(raw_c) + norm(raw_d) equals the total input norm.
    """
    a = state.path_a.amplitudes
    b = state.path_b.amplitudes
    grid = state.path_a.grid
    raw_c = MomentumWavefunction(grid, (a + 1j * b) / _SQRT2)
    raw_d = MomentumWavefunction(grid, (a - 1j * b) / _SQRT2)
    return raw_c, raw_d


def port_stats(raw: MomentumWavefunction, port: str) -> PortOutcome:
    """Probability, normalized wavefunction and conditional mean at a port."""
    prob = wp.norm(raw)
    if prob < DARK_THRESHOLD:
        return PortOutcome(port=port, probability=prob, wavefunction=raw, mean_p=np.nan)
    normalized = MomentumWavefunction(raw.grid, raw.amplitudes / np.sqrt(prob))
    return PortOutcome(
        port=port,
        probability=prob,
        wavefunction=normalized,
        mean_p=wp.mean_momentum(normalized),
    )


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
    """
    residual = conservation_residual(p_c, mean_c, p_d, mean_d, t, delta, mean_in)
    t, delta, p_sum, residual = np.broadcast_arrays(t, delta, np.add(p_c, p_d), residual)
    not_unitary = np.abs(p_sum - 1.0) > UNITARITY_TOLERANCE
    unbalanced = residual > tolerance * np.maximum(1.0, np.abs(delta) / 100.0)
    bad = np.flatnonzero(not_unitary | unbalanced)
    if bad.size:
        i = bad[0]
        broken = "unitarity" if not_unitary.flat[i] else "conservation"
        raise QifError(f"{broken} violated at t={t.flat[i]}, delta={delta.flat[i]}")
    return residual


def run_mzi(input_wf: MomentumWavefunction, t: float, delta: float, alpha: float = 0.0):
    """Full pipeline: split, kick arm B, recombine, post-select both ports."""
    state = apply_kick(split(input_wf, BeamSplitterCoeffs(t)), delta, alpha)
    raw_c, raw_d = recombine(state)
    return port_stats(raw_c, "C"), port_stats(raw_d, "D")
