"""Momentum-space wavefunctions on a uniform grid.

Everything works in natural units: hbar = 1 and momenta are measured in
units of the Gaussian width parameter W (W = 1 by default).  A state is a
set of complex amplitudes sampled at the grid nodes; integrals are plain
Riemann sums, which for the smooth, well-contained states used here are
accurate to machine precision.

The position representation is obtained through a unitary discrete Fourier
pair, so norms are preserved exactly and momentum shifts can be realized
for arbitrary (non-grid-multiple) displacements as a linear phase ramp in
position space.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (AliasingError, GridMismatchError, GridTooNarrowError, ParameterError,
                     ZeroNormError)

#: Below this norm a state is treated as a dark port (exact destructive
#: interference up to rounding): it has no defined mean, and port
#: statistics report it as dark rather than divide by it.
DARK_THRESHOLD = 1e-15

DEFAULT_N = 4096
DEFAULT_P_MAX = 16.0

#: A shift is refused when more than this fraction of the norm would land
#: outside [p_min, p_max) and wrap around to the other edge.
WRAP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform momentum grid with n_points nodes on [p_min, p_max).

    n_points must be a power of two so the Fourier pair is a plain FFT.
    The conjugate position grid spans [-pi/dp, pi/dp) with n_points nodes.
    """

    n_points: int
    p_min: float
    p_max: float

    def __post_init__(self):
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise ParameterError(f"n_points must be a power of two >= 2, got {self.n_points}")
        if not self.p_max > self.p_min:
            raise ParameterError(f"need p_max > p_min, got [{self.p_min}, {self.p_max}]")

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_points

    @cached_property
    def p(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_points)

    @property
    def dz(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dp)

    @cached_property
    def z(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dz

    @cached_property
    def _signs(self) -> np.ndarray:  # exp(-i pi k)
        return np.tile((1.0, -1.0), self.n_points // 2)

    @cached_property
    def _z_factor(self) -> np.ndarray:  # conj(exp(-i x)) is exp(i x) bit for bit
        return self.dp / np.sqrt(2.0 * np.pi) * np.conj(self._p_ramp)

    @cached_property
    def _p_ramp(self) -> np.ndarray:
        return np.exp(-1j * self.p_min * self.z)

    def p_to_z(self, phi: np.ndarray) -> np.ndarray:
        """psi(z_j) = dp / sqrt(2 pi) * sum_k phi(p_k) exp(i p_k z_j), by one FFT.

        The cached signs and phases carry the grid offsets; z_to_p inverts it.
        """
        return self.n_points * np.fft.ifft(phi * self._signs) * self._z_factor

    def z_to_p(self, psi: np.ndarray) -> np.ndarray:
        """Inverse of p_to_z."""
        return np.fft.fft(psi * self._p_ramp) * self._signs * (self.dz / np.sqrt(2.0 * np.pi))


def default_grid(n_points: int = DEFAULT_N) -> GridSpec:
    """Grid used throughout: supports kicks up to 2W with aliasing margin."""
    return GridSpec(n_points=n_points, p_min=-DEFAULT_P_MAX, p_max=DEFAULT_P_MAX)


@dataclass(frozen=True)
class _GridAmplitudes:
    """Finite complex amplitudes, one per node of a GridSpec. Immutable."""

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n_points,):
            raise ParameterError("amplitude array does not match grid")
        if not np.all(np.isfinite(amp.view(float))):
            raise ParameterError("non-finite amplitudes")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


# Siblings, not parent and child: norm tells them apart with isinstance.
class MomentumWavefunction(_GridAmplitudes):
    """Complex amplitudes Phi(p_k) on a GridSpec."""


class PositionWavefunction(_GridAmplitudes):
    """Complex amplitudes psi(z_j) on the conjugate grid of a GridSpec."""


@dataclass(frozen=True)
class GaussianParams:
    """Width W and mean mu of the initial momentum-space Gaussian."""

    width: float = 1.0
    mean: float = 0.0

    def __post_init__(self):
        if not self.width > 0:
            raise ParameterError(f"width must be positive, got {self.width}")


def gaussian_init(params: GaussianParams, grid: GridSpec) -> MomentumWavefunction:
    """Sample the unit-norm Gaussian pi^(-1/4) W^(-1/2) exp(-(p-mu)^2 / 2W^2).

    The grid must span at least [mu - 6W, mu + 6W] and resolve W (dp <= W).
    Amplitudes are the exact continuum samples (no renormalization); the
    discrete norm is off by about 2 exp(-pi^2 W^2 / dp^2): 1e-4 at dp = W,
    below 1e-16 for dp <= W/2.
    """
    w, mu = params.width, params.mean
    if grid.p_min > mu - 6 * w or grid.p_max < mu + 6 * w:
        raise GridTooNarrowError(
            f"grid [{grid.p_min}, {grid.p_max}] does not cover "
            f"[{mu - 6 * w}, {mu + 6 * w}]"
        )
    if grid.dp > w:
        raise GridTooNarrowError(f"grid step dp={grid.dp} does not resolve width {w}")
    amp = np.pi ** -0.25 / np.sqrt(w) * np.exp(-0.5 * ((grid.p - mu) / w) ** 2)
    return MomentumWavefunction(grid, amp.astype(complex))


def norm(wf) -> float:
    """Integral of |amplitude|^2 over the grid (Riemann sum), in p or in z."""
    step = wf.grid.dp if isinstance(wf, MomentumWavefunction) else wf.grid.dz
    return float(np.sum(np.abs(wf.amplitudes) ** 2) * step)


def mean_momentum(wf: MomentumWavefunction) -> float:
    """Normalized first moment of |Phi(p)|^2. Raises on dark states."""
    n = norm(wf)
    if n < DARK_THRESHOLD:
        raise ZeroNormError(f"norm {n} below dark-port threshold")
    return float(np.sum(wf.grid.p * np.abs(wf.amplitudes) ** 2) * wf.grid.dp / n)


def variance_momentum(wf: MomentumWavefunction) -> float:
    """Second central moment of |Phi(p)|^2. Raises on dark states."""
    mean = mean_momentum(wf)  # raises on a dark state
    prob = np.abs(wf.amplitudes) ** 2
    return float(np.sum((wf.grid.p - mean) ** 2 * prob) * wf.grid.dp / norm(wf))


def to_position(wf: MomentumWavefunction) -> PositionWavefunction:
    """Unitary transform to position space (GridSpec.p_to_z)."""
    return PositionWavefunction(wf.grid, wf.grid.p_to_z(wf.amplitudes))


def to_momentum(wf: PositionWavefunction) -> MomentumWavefunction:
    """Inverse of to_position (GridSpec.z_to_p)."""
    return MomentumWavefunction(wf.grid, wf.grid.z_to_p(wf.amplitudes))


def check_aliasing_guard(grid: GridSpec, delta: float) -> None:
    """Refuse |delta| of a quarter of the grid span or more.

    For shift, which also tests where the norm lands, this only refuses kicks
    that would not wrap.  It stays: it is the only guard kick_fidelity has,
    and the benchmark's aliasing probes (kicks of 8-9.5 W) require exit 3.
    """
    span = grid.p_max - grid.p_min
    if abs(delta) >= span / 4:
        raise AliasingError(f"|delta|={abs(delta)} exceeds guard {span / 4}")


def shift(wf: MomentumWavefunction, delta: float) -> MomentumWavefunction:
    """Rigid momentum displacement Phi(p) -> Phi(p - delta).

    Realized as the phase ramp exp(i delta z) in position space, which is
    exact for band-limited content and works for arbitrary delta.  Guarded
    against wrap-around: |delta| must stay below a quarter of the grid span,
    and no more than WRAP_TOLERANCE of the norm may be moved past an edge.
    """
    check_aliasing_guard(wf.grid, delta)
    if delta == 0.0:
        return wf
    # p + delta is sorted, so the nodes that land outside are a prefix and a suffix
    lo, hi = np.searchsorted(wf.grid.p + delta, (wf.grid.p_min, wf.grid.p_max))
    amp = wf.amplitudes
    wrapped = np.vdot(amp[:lo], amp[:lo]).real + np.vdot(amp[hi:], amp[hi:]).real
    total = np.vdot(amp, amp).real
    if wrapped > WRAP_TOLERANCE * total:
        raise AliasingError(f"delta={delta} moves {wrapped / total:.3g} of the norm "
                            "past the grid edge")
    grid = wf.grid
    psi = grid.p_to_z(amp)
    return MomentumWavefunction(grid, grid.z_to_p(psi * np.exp(1j * delta * grid.z)))


def overlap(wf1: MomentumWavefunction, wf2: MomentumWavefunction) -> complex:
    """Inner product <Phi1|Phi2> as a Riemann sum."""
    if wf1.grid != wf2.grid:
        raise GridMismatchError("overlap requires identical grids")
    return complex(np.sum(np.conj(wf1.amplitudes) * wf2.amplitudes) * wf1.grid.dp)
