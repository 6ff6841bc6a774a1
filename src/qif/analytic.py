"""Closed-form port statistics for a Gaussian input.

For the unit-norm Gaussian of width W the port integrals can be done
analytically.  With K = exp(-delta^2 / 4 W^2), the overlap of the original
and kicked Gaussians, and r = sqrt(1 - t^2):

    P_C,D   = (1 -+ 2 t r cos(alpha) K) / 2
    <p>_C,D = delta (r^2 -+ t r cos(alpha) K) / (2 P_C,D)

(upper signs: port C).  These are derivation results, validated against
grid quadrature in the test suite; they serve as the independent oracle
for every grid computation and for fast parameter sweeps.  stats_grid is
the one place they are written and returns a PortStats of arrays, with nan
for a dark port's mean; closed_form_stats is its scalar view, and `qif
sweep` evaluates a whole t x delta surface with one call.
"""

import numpy as np

from .errors import ParameterError
from .interferometer import BeamSplitterCoeffs, PortStats
from .wavepacket import DARK_THRESHOLD


def gaussian_overlap(delta_over_w):
    """Overlap integral of two unit-width Gaussians displaced by delta.

    Equals exp(-delta^2 / 4 W^2), elementwise; checked against numeric
    quadrature in the tests before being trusted anywhere.
    """
    with np.errstate(over="ignore"):  # a delta whose square overflows has K = 0
        return np.exp(-0.25 * delta_over_w * delta_over_w)


def stats_grid(t, delta, alpha=0.0):
    """The closed forms, broadcast over t, delta and alpha.

    Means are nan where the port is dark.  t must lie in [0, 1]; callers
    check it with BeamSplitterCoeffs.
    """
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    r = np.sqrt(1.0 - t * t)
    cross = t * r * np.cos(alpha) * gaussian_overlap(delta)
    p_c = (1.0 - 2.0 * cross) / 2.0
    p_d = (1.0 + 2.0 * cross) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_c = np.where(p_c >= DARK_THRESHOLD, delta * (r * r - cross) / (2.0 * p_c), np.nan)
        mean_d = np.where(p_d >= DARK_THRESHOLD, delta * (r * r + cross) / (2.0 * p_d), np.nan)
    return PortStats(p_c, mean_c, p_d, mean_d)


def closed_form_stats(t: float, delta_over_w: float, alpha: float = 0.0) -> PortStats:
    """Analytic P_C, <p>_C, P_D, <p>_D for a Gaussian input: one cell of stats_grid."""
    BeamSplitterCoeffs(t)
    for name, value in (("kick delta", delta_over_w), ("phase alpha", alpha)):
        if not np.isfinite(value):  # refused before numpy returns nan or warns
            raise ParameterError(f"{name} must be finite, got {value}")
    return PortStats(*map(float, stats_grid(t, delta_over_w, alpha)))
