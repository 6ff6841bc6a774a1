"""SI-unit feasibility estimates for an electron interferometer.

Maps a concrete electron-beam scenario (source energy, collimating slit,
drift length, kicking capacitor) onto the dimensionless kick-to-width
ratio delta/W used by the interferometer model.

Conventions, documented because the slit-to-Gaussian mapping is not
unique: the slit of full width a is approximated by a Gaussian of spatial
width sigma0 = a/2, and W is the conjugate minimum-uncertainty momentum
width hbar / (2 sigma0).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# CODATA 2018 values.
HBAR = 1.054571817e-34       # J s
ELECTRON_MASS = 9.109383702e-31   # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EV = 1.602176634e-19         # J
ELECTRON_REST_ENERGY_EV = 510998.950  # eV

#: Beam-path separation reachable 35 cm after a 100 nm grating with a
#: 6 keV beam; informational context for the capacitor geometry.
PATH_SEPARATION_M = 55e-6
PATH_SEPARATION_DISTANCE_M = 0.35

#: Non-relativistic treatment is refused above this fraction of the
#: electron rest energy.
RELATIVISTIC_FRACTION = 0.1


class RelativisticRegimeError(ParameterError):
    """Kinetic energy too high for the non-relativistic treatment."""


@dataclass(frozen=True)
class ElectronScenario:
    """Beam and capacitor geometry, SI units except the energy (eV)."""

    kinetic_energy_ev: float = 6e3
    slit_width_m: float = 1.5e-6
    drift_distance_m: float = 1.0
    plate_separation_m: float = 1e-3
    plate_length_m: float = 1e-2
    voltage_v: float = 0.2e-3

    def __post_init__(self):
        for name in ("kinetic_energy_ev", "slit_width_m", "drift_distance_m",
                     "plate_separation_m", "plate_length_m"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        if self.voltage_v < 0:
            raise ParameterError("voltage_v must be non-negative")


@dataclass(frozen=True)
class FeasibilityReport:
    speed: float               # m/s
    momentum: float            # kg m/s
    time_of_flight: float      # s
    beam_width_at_drift: float  # m, Gaussian sigma after the drift
    momentum_width: float      # kg m/s, the width parameter W
    kick: float                # kg m/s, the capacitor kick delta
    ratio: float               # delta / W, dimensionless


def electron_report(scenario: ElectronScenario = ElectronScenario()) -> FeasibilityReport:
    """Feasibility numbers for an electron-beam scenario.

    Non-relativistic kinematics throughout; refuses energies above 10% of
    the electron rest energy.
    """
    e_ev = scenario.kinetic_energy_ev
    if e_ev >= RELATIVISTIC_FRACTION * ELECTRON_REST_ENERGY_EV:
        raise RelativisticRegimeError(
            f"{e_ev} eV is not safely non-relativistic "
            f"(limit {RELATIVISTIC_FRACTION * ELECTRON_REST_ENERGY_EV:.0f} eV)"
        )
    energy = e_ev * EV
    momentum = np.sqrt(2.0 * ELECTRON_MASS * energy)
    speed = momentum / ELECTRON_MASS
    tof = scenario.drift_distance_m / speed

    sigma0 = scenario.slit_width_m / 2.0
    spread = HBAR * tof / (2.0 * ELECTRON_MASS * sigma0 * sigma0)
    sigma_t = sigma0 * np.sqrt(1.0 + spread * spread)
    momentum_width = HBAR / (2.0 * sigma0)

    force = ELEMENTARY_CHARGE * scenario.voltage_v / scenario.plate_separation_m
    kick = force * scenario.plate_length_m / speed
    return FeasibilityReport(
        speed=float(speed),
        momentum=float(momentum),
        time_of_flight=float(tof),
        beam_width_at_drift=float(sigma_t),
        momentum_width=float(momentum_width),
        kick=float(kick),
        ratio=float(kick / momentum_width),
    )

