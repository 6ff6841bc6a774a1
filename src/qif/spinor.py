"""Internal-state realization of the interferometer with cold atoms.

The two interferometer paths are replaced by two internal atomic states
|A> and |B>, the modes of the same two-mode state the spatial
interferometer uses.  Microwave pulses play the role of beam splitters
(real rotation coefficients), state-dependent Stern-Gerlach kicks play the
role of the arm force, and selecting atoms in one internal state
implements the exit-port post-selection.

The four-step protocol (pulse, kick, pi/2 pulse, inverse kick, select A)
produces the same momentum wavefunction as the spatial interferometer's
port C with delta = delta_b - delta_a and alpha = 0.  Selection reads one
state only, so the inverse kick acts on that state alone.
"""

import numpy as np

from . import interferometer as mzi
from .interferometer import BeamSplitterCoeffs, PortOutcome, TwoPathState
from .wavepacket import MomentumWavefunction

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def microwave_pulse(state: TwoPathState, t_coeff: float) -> TwoPathState:
    """Internal-state rotation with real coefficients.

    Maps |A> to t|A> + sqrt(1-t^2)|B> and, unitarily,
    |B> to -sqrt(1-t^2)|A> + t|B>.  t_coeff = 1/sqrt(2) is a pi/2 pulse.
    """
    bs = BeamSplitterCoeffs(t_coeff)
    a, b = state.path_a, state.path_b
    return TwoPathState(state.grid, bs.t * a - bs.r * b, bs.r * a + bs.t * b)


def stern_gerlach(state: TwoPathState, delta_a: float, delta_b: float) -> TwoPathState:
    """State-dependent momentum kicks, applied to each internal state."""
    return mzi.kick(mzi.kick(state, "A", delta_a), "B", delta_b)


def run_protocol(input_wf: MomentumWavefunction, t_coeff: float, delta_a: float,
                 delta_b: float, select: str = "A") -> PortOutcome:
    """Full pulse sequence starting from input_wf in |A>, any source run_mzi takes.

    pulse(t) -> kick(delta_a, delta_b) -> pi/2 pulse -> inverse kick of the
    selected state alone -> select.  Selecting A reproduces port C of the spatial
    interferometer at delta = delta_b - delta_a, alpha = 0; selecting B
    yields the port-D wavefunction rigidly translated by -(delta_b -
    delta_a) in momentum (same probability, shifted mean).  Only the selected
    state's inverse kick can wrap; a select other than A or B is refused before any kick.
    """
    mzi._mode_field(select)  # refused before any kick
    grid = input_wf.grid
    state = TwoPathState(grid, input_wf.amplitudes, np.zeros(grid.n_points, dtype=complex))
    state = microwave_pulse(state, t_coeff)
    state = stern_gerlach(state, delta_a, delta_b)
    state = microwave_pulse(state, _SQRT1_2)
    state = mzi.kick(state, select, -delta_a if select == "A" else -delta_b)
    return mzi.select(state, select)
