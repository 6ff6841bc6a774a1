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
import numbers
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
#: Most substeps a pulse takes: at 0.1-0.2 ms each on a 4096-point grid, 10^6 are minutes.
MAX_SUBSTEPS = 10 ** 6


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
        if not isinstance(self.substeps, numbers.Integral):
            raise ParameterError(f"substeps must be an integer, got {self.substeps}")
        if not 1 <= self.substeps <= MAX_SUBSTEPS:
            raise ParameterError(f"substeps must be in [1, {MAX_SUBSTEPS}], got {self.substeps}")

    @property
    def delta(self) -> float:
        return self.force * self.duration


@dataclass(frozen=True)
class PropagationConfig:
    mass: float = 1.0

    def __post_init__(self):
        if not 0 < self.mass < np.inf:
            raise ParameterError(f"mass must be positive and finite, got {self.mass}")


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
    # the largest exponents, refused before numpy builds the phases and warns
    p_edge = max(abs(grid.p_min), abs(grid.p_max))
    if not math.isfinite(p_edge * p_edge * dt / float(config.mass)):
        raise ParameterError(f"non-finite amplitudes: kinetic phase p^2 dt/m overflows "
                             f"at mass={config.mass}, dt={dt}")
    kinetic = np.exp(-0.5j * grid.p * grid.p * dt / config.mass)
    if not math.isfinite(0.5 * pulse.force * float(np.max(np.abs(grid.z))) * dt):
        raise ParameterError(f"non-finite amplitudes: potential phase F z dt/2 overflows "
                             f"at force={pulse.force}, dt={dt}")
    half_ramp = np.exp(0.5j * pulse.force * grid.z * dt)  # exp(-i V dt / 2), V = -F z
    ramp = half_ramp * half_ramp
    psi = wf.amplitudes * half_ramp
    for step in range(pulse.substeps):
        psi = grid.momentum_phase(psi, kinetic)
        # merge adjacent potential half-steps except after the last one
        psi *= ramp if step < pulse.substeps - 1 else half_ramp
    # a non-finite value at any substep has spread to every node: refused here
    out = PositionWavefunction(grid, psi)
    _check_leakage(out)
    return out


def free_propagate(wf: PositionWavefunction, time: float,
                   config: PropagationConfig = PropagationConfig()) -> PositionWavefunction:
    """Exact kinetic evolution exp(-i p^2 t / 2m): a zero-force pulse of one substep."""
    return apply_impulse(wf, ImpulsePulse(0.0, time), config)


def kick_fidelity(before: PositionWavefunction, after: PositionWavefunction,
                  delta: float) -> float:
    """|<shift(before, delta) | after>| with both states normalized.

    Quantifies how well a finite-duration pulse realizes the ideal rigid
    momentum shift; 1 means the packet kept its form exactly.
    """
    if before.grid != after.grid:
        raise GridMismatchError("fidelity requires a shared grid")
    wp.check_aliasing_guard(before.grid, delta)
    target = before.amplitudes * before.grid.kick_ramp(delta)  # the exact shift, a phase ramp
    inner = np.sum(np.conj(target) * after.amplitudes) * before.grid.dz
    return float(abs(inner) / np.sqrt(wp.norm(before) * wp.norm(after)))


def run_mzi_splitstep(input_wf: MomentumWavefunction, t: float, pulse: ImpulsePulse,
                      config: PropagationConfig = PropagationConfig()):
    """Interferometer run where the arm-B kick is a real split-step pulse.

    Arm A undergoes free evolution for the pulse duration so that the
    kinetic phase common to both arms cancels; in the impulsive regime the
    port statistics then match the idealized run with alpha = 0.
    """
    grid = input_wf.grid
    state = mzi.split(input_wf, mzi.BeamSplitterCoeffs(t))
    psi_a = free_propagate(PositionWavefunction(grid, grid.p_to_z(state.path_a)),
                           pulse.duration, config)
    psi_b = apply_impulse(PositionWavefunction(grid, grid.p_to_z(state.path_b)), pulse, config)
    evolved = mzi.TwoPathState(grid, grid.z_to_p(psi_a.amplitudes), grid.z_to_p(psi_b.amplitudes))
    return mzi.exit_ports(evolved)
