"""Split-step propagation of the 1D time-dependent Schrodinger equation.

Validates the impulsive-kick idealization used by the interferometer: a
linear potential V(z) = -F z applied for a duration tau shifts the momentum
wavefunction by F*tau, and in the short-pulse limit does so without
deforming it.  Symmetric (Strang) splitting is used, with the potential
applied as an exact phase, so the only error is the second-order splitting
error and unitarity is preserved to rounding.

No absorbing boundaries: runs are required to keep the packet away from
the edges of the position window, and this is checked.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import interferometer as mzi
from . import wavepacket as wp
from .errors import BoundaryLeakError, GridMismatchError, ParameterError
from .wavepacket import MomentumWavefunction, PositionWavefunction

#: Fraction of cells at each edge of the position window used for the
#: leakage check.
_EDGE_FRACTION = 0.05
_LEAK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ImpulsePulse:
    """Constant force F applied for a duration tau; imparts delta = F*tau."""

    force: float
    duration: float
    substeps: int = 1

    def __post_init__(self):
        if not np.isfinite(self.force):
            raise ParameterError(f"force must be finite, got {self.force}")
        if not 0 <= self.duration < np.inf:
            raise ParameterError(f"duration must be finite and non-negative, got {self.duration}")
        if self.substeps < 1:
            raise ParameterError("substeps must be >= 1")

    @property
    def delta(self) -> float:
        return self.force * self.duration


@dataclass(frozen=True)
class PropagationConfig:
    mass: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ParameterError("mass must be positive")


def _check_leakage(wf: PositionWavefunction) -> None:
    prob = np.abs(wf.amplitudes) ** 2 * wf.grid.dz
    total = prob.sum()
    if total <= 0:
        return
    edge = max(1, int(_EDGE_FRACTION * wf.grid.n_points))
    inner = prob[edge:-edge].sum()
    if inner / total < 1.0 - _LEAK_TOLERANCE:
        raise BoundaryLeakError(
            f"probability at window edges: {1 - inner / total:.3e}"
        )


def free_propagate(wf: PositionWavefunction, time: float,
                   config: PropagationConfig = PropagationConfig()) -> PositionWavefunction:
    """Exact kinetic evolution exp(-i p^2 t / 2m), applied in momentum space."""
    if time == 0.0:
        return wf
    grid = wf.grid
    phi = grid.z_to_p(wf.amplitudes) * np.exp(-0.5j * grid.p * grid.p * time / config.mass)
    return PositionWavefunction(grid, grid.p_to_z(phi))


def apply_impulse(wf: PositionWavefunction, pulse: ImpulsePulse,
                  config: PropagationConfig = PropagationConfig()) -> PositionWavefunction:
    """Strang-split evolution under H = p^2/2m - F z for the pulse duration.

    Potential half-step, kinetic full step, potential half-step, repeated
    over the requested substeps.  Both factors are exact phases, so norm is
    conserved to rounding and the mean momentum gain is exactly F*tau
    (Ehrenfest, exact for a linear potential).
    """
    if pulse.duration == 0.0:
        return wf
    _check_leakage(wf)
    grid = wf.grid
    dt = pulse.duration / pulse.substeps
    p_edge = max(abs(grid.p_min), abs(grid.p_max))
    z_edge = float(np.max(np.abs(grid.z)))
    # each phase's largest exponent, refused before numpy builds the phase and warns
    exponents = {f"kinetic phase p^2 dt/m overflows at mass={config.mass}":
                 p_edge * p_edge * dt / float(config.mass),
                 f"potential phase F z dt/2 overflows at force={pulse.force}":
                 0.5 * pulse.force * z_edge * dt}
    for overflow, exponent in exponents.items():
        if not math.isfinite(exponent):
            raise ParameterError(f"non-finite amplitudes: {overflow}, dt={dt}")
    half_ramp = np.exp(0.5j * pulse.force * grid.z * dt)  # exp(-i V dt / 2), V = -F z
    ramp = half_ramp * half_ramp
    kinetic = np.exp(-0.5j * grid.p * grid.p * dt / config.mass)
    psi = wf.amplitudes * half_ramp
    for step in range(pulse.substeps):
        psi = grid.p_to_z(grid.z_to_p(psi) * kinetic)
        # merge adjacent potential half-steps except after the last one
        psi = psi * (ramp if step < pulse.substeps - 1 else half_ramp)
    # a non-finite value at any substep has spread to every node: refused here
    out = PositionWavefunction(grid, psi)
    _check_leakage(out)
    return out


def shift_position_state(wf: PositionWavefunction, delta: float) -> PositionWavefunction:
    """Exact momentum displacement of a position-space state (phase ramp)."""
    wp.check_aliasing_guard(wf.grid, delta)
    return PositionWavefunction(wf.grid, wf.amplitudes * np.exp(1j * delta * wf.grid.z))


def kick_fidelity(before: PositionWavefunction, after: PositionWavefunction,
                  delta: float) -> float:
    """|<shift(before, delta) | after>| with both states normalized.

    Quantifies how well a finite-duration pulse realizes the ideal rigid
    momentum shift; 1 means the packet kept its form exactly.
    """
    if before.grid != after.grid:
        raise GridMismatchError("fidelity requires a shared grid")
    target = shift_position_state(before, delta)
    inner = np.sum(np.conj(target.amplitudes) * after.amplitudes) * before.grid.dz
    return float(abs(inner) / np.sqrt(wp.norm(before) * wp.norm(after)))


def run_mzi_splitstep(input_wf: MomentumWavefunction, t: float, pulse: ImpulsePulse,
                      config: PropagationConfig = PropagationConfig()):
    """Interferometer run where the arm-B kick is a real split-step pulse.

    Arm A undergoes free evolution for the pulse duration so that the
    kinetic phase common to both arms cancels; in the impulsive regime the
    port statistics then match the idealized run with alpha = 0.
    """
    state = mzi.split(input_wf, mzi.BeamSplitterCoeffs(t))
    psi_a = free_propagate(wp.to_position(state.path_a), pulse.duration, config)
    psi_b = apply_impulse(wp.to_position(state.path_b), pulse, config)
    evolved = mzi.TwoPathState(wp.to_momentum(psi_a), wp.to_momentum(psi_b))
    raw_c, raw_d = mzi.recombine(evolved)
    return mzi.port_stats(raw_c, "C"), mzi.port_stats(raw_d, "D")
