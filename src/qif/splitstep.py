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
from .errors import BoundaryLeakError, GridMismatchError, ParameterError, ZeroNormError
from .wavepacket import MomentumWavefunction, PositionWavefunction

#: Fraction of cells at each edge of the position window used for the
#: leakage check.
_EDGE_FRACTION = 0.05
_LEAK_TOLERANCE = 1e-6
#: Most substeps a pulse takes.  apply_impulse costs one FFT pair at any count; the bound
#: refuses a count such as 10^18 as the typo it is.
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


def _kinetic_sum(p, kick, n):
    """sum_k (p + k kick)^2 over k < n: the n kinetic steps, the k-th past k momentum kicks."""
    return p * (p * n + kick * (n * (n - 1))) + kick * kick * ((n - 1) * n * (2 * n - 1) // 6)


def apply_impulse(wf: PositionWavefunction, pulse: ImpulsePulse,
                  config: PropagationConfig = PropagationConfig()) -> PositionWavefunction:
    """Strang-split evolution under H = p^2/2m - F z for the pulse duration, in closed form.

    A potential step exp(i F z dt) shifts p by F dt, so moving each one past the kinetic
    steps to its left turns the k-th of the n kinetic steps into exp(-i (p + k F dt)^2 dt/2m).
    The n substeps are then a half-step ramp, one kinetic phase (one FFT pair) and the ramp
    exp(i F z (tau - dt/2)), with the loop's splitting error, its p-free O(dt^2) phase too.
    Both factors are exact phases, so norm is conserved to rounding and the mean momentum
    gain is exactly F*tau (Ehrenfest, exact for a linear potential).
    """
    if pulse.duration == 0.0:
        return wf
    _check_leakage(wf)
    grid, n, dt = wf.grid, int(pulse.substeps), pulse.duration / pulse.substeps
    kick, last = pulse.force * dt, dt * (2 * n - 1)  # the last ramp is exp(0.5j F z last)
    # the whole pulse's largest exponents, refused before numpy builds the phases and warns:
    # the potential's first, to name a force that overflows, and 1/m, as numpy divides by it
    if not math.isfinite(0.5 * pulse.force * float(np.max(np.abs(grid.z))) * last):
        raise ParameterError(f"non-finite amplitudes: potential phase F z dt/2 overflows "
                             f"at force={pulse.force}, dt={dt}, substeps={n}")
    p_edge = max(abs(grid.p_min), abs(grid.p_max))
    if not math.isfinite(_kinetic_sum(p_edge, abs(kick), n) * dt * (1 / float(config.mass))):
        raise ParameterError(f"non-finite amplitudes: kinetic phase p^2 dt/m overflows "
                             f"at mass={config.mass}, dt={dt}, substeps={n}, force={pulse.force}")
    half = np.exp(0.5j * pulse.force * grid.z * dt)  # exp(-i V dt / 2), V = -F z
    kinetic = np.exp(-0.5j * _kinetic_sum(grid.p, kick, n) * dt / config.mass)
    psi = grid.momentum_phase(wf.amplitudes * half, kinetic)
    psi *= np.exp(0.5j * pulse.force * grid.z * last)
    out = PositionWavefunction(grid, psi)
    _check_leakage(out)
    wp.check_kick(grid, (grid.z_to_p(wf.amplitudes),), (pulse.delta,))  # as shift refuses it
    return out


def free_propagate(wf: PositionWavefunction, time: float,
                   config: PropagationConfig = PropagationConfig()) -> PositionWavefunction:
    """Exact kinetic evolution exp(-i p^2 t / 2m): a zero-force pulse of one substep."""
    return apply_impulse(wf, ImpulsePulse(0.0, time), config)


def kick_fidelity(before: PositionWavefunction, after: PositionWavefunction,
                  delta: float) -> float:
    """|<shift(before, delta) | after>| with both states normalized.

    Quantifies how well a finite-duration pulse realizes the ideal rigid
    momentum shift; 1 means the packet kept its form exactly.  A delta that
    would carry before's momentum past a grid edge is refused, as shift refuses it,
    and so is a dark state, which has no direction to compare.
    """
    if before.grid != after.grid:
        raise GridMismatchError("fidelity requires a shared grid")
    wp.check_kick(before.grid, (before.grid.z_to_p(before.amplitudes),), (delta,))
    norms = wp.norm(before), wp.norm(after)
    if min(norms) < wp.DARK_THRESHOLD:
        raise ZeroNormError(f"norm {min(norms)} below dark-port threshold")
    target = before.amplitudes * before.grid.kick_ramp(delta)  # the exact shift, a phase ramp
    inner = np.sum(np.conj(target) * after.amplitudes) * before.grid.dz
    return float(abs(inner) / np.sqrt(norms[0] * norms[1]))


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
