"""Closed-form port statistics for a Gaussian input.

For the unit-norm Gaussian of width W the port integrals can be done
analytically.  With K = exp(-delta^2 / 4 W^2), the overlap of the original
and kicked Gaussians, and r = sqrt(1 - t^2):

    P_C,D   = (1 -+ 2 t r cos(alpha) K) / 2
    <p>_C,D = delta (r^2 -+ t r cos(alpha) K) / (2 P_C,D)

(upper signs: port C).  These are derivation results, validated against
grid quadrature in the test suite; they serve as the independent oracle
for every grid computation and for fast parameter sweeps.  stats_grid is
the one place they are written: closed_form_stats is its scalar view, and
sweeps evaluate a whole t x delta surface with one call.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .interferometer import BeamSplitterCoeffs
from .wavepacket import DARK_THRESHOLD


@dataclass(frozen=True)
class ClosedFormStats:
    """Probabilities and conditional means at both ports (units of W)."""

    p_c: float
    p_d: float
    mean_c: Optional[float]
    mean_d: Optional[float]


def gaussian_overlap(delta_over_w):
    """Overlap integral of two unit-width Gaussians displaced by delta.

    Equals exp(-delta^2 / 4 W^2), elementwise; checked against numeric
    quadrature in the tests before being trusted anywhere.
    """
    return np.exp(-0.25 * delta_over_w * delta_over_w)


def stats_grid(t, delta, alpha=0.0):
    """The closed forms, broadcast over t, delta and alpha.

    Returns (p_c, mean_c, p_d, mean_d); means are nan where the port is
    dark.  t must lie in [0, 1]; callers check it with BeamSplitterCoeffs.
    """
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    r = np.sqrt(1.0 - t * t)
    cross = t * r * np.cos(alpha) * gaussian_overlap(delta)
    p_c = (1.0 - 2.0 * cross) / 2.0
    p_d = (1.0 + 2.0 * cross) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_c = np.where(p_c > DARK_THRESHOLD, delta * (r * r - cross) / (2.0 * p_c), np.nan)
        mean_d = np.where(p_d > DARK_THRESHOLD, delta * (r * r + cross) / (2.0 * p_d), np.nan)
    return p_c, mean_c, p_d, mean_d


def closed_form_stats(t: float, delta_over_w: float, alpha: float = 0.0) -> ClosedFormStats:
    """Analytic P_C, P_D, <p>_C, <p>_D for a Gaussian input: one cell of stats_grid."""
    BeamSplitterCoeffs(t)
    p_c, mean_c, p_d, mean_d = (float(x) for x in stats_grid(t, delta_over_w, alpha))
    return ClosedFormStats(p_c=p_c, p_d=p_d, mean_c=None if np.isnan(mean_c) else mean_c,
                           mean_d=None if np.isnan(mean_d) else mean_d)


def find_min_mean_c(t_range, delta_range, resolution: int):
    """Dense grid search for the most negative <p>_C at alpha = 0.

    resolution is the number of samples per axis; returns (t*, delta*,
    min value).  A plain grid search keeps the result reproducible.
    """
    t_lo, t_hi = t_range
    d_lo, d_hi = delta_range
    if not (t_hi > t_lo and d_hi > d_lo) or resolution < 2:
        raise ParameterError("ranges must be nonempty with resolution >= 2")
    ts = np.linspace(t_lo, t_hi, resolution)
    ds = np.linspace(d_lo, d_hi, resolution)
    tt, dd = np.meshgrid(ts, ds, indexing="ij")
    _, mean_c, _, _ = stats_grid(tt, dd)
    flat = np.where(np.isnan(mean_c), np.inf, mean_c)
    i, j = np.unravel_index(np.argmin(flat), flat.shape)
    return float(tt[i, j]), float(dd[i, j]), float(mean_c[i, j])
