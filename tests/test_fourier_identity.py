"""The grid's cached Fourier pair rounds exactly like the transforms written out.

Each reference below is the plain expression, with every phase factor built
on the spot.  The comparisons are np.array_equal, not allclose: caching a
factor or dropping a wrapper object must not move a single bit.
"""

import numpy as np
import pytest

from qif import splitstep as ss, wavepacket as wp
from qif.splitstep import ImpulsePulse, PropagationConfig
from qif.wavepacket import GaussianParams, GridSpec, MomentumWavefunction, PositionWavefunction


def ref_to_position(grid, phi):
    n = grid.n_points
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    psi = n * np.fft.ifft(phi * signs)
    psi *= grid.dp / np.sqrt(2.0 * np.pi) * np.exp(1j * grid.p_min * grid.z)
    return psi


def ref_to_momentum(grid, psi):
    n = grid.n_points
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    phi = np.fft.fft(psi * np.exp(-1j * grid.p_min * grid.z)) * signs
    phi *= grid.dz / np.sqrt(2.0 * np.pi)
    return phi


def ref_apply_impulse(grid, psi, pulse, mass):
    dt = pulse.duration / pulse.substeps
    half_ramp = np.exp(0.5j * pulse.force * grid.z * dt)
    psi = psi * half_ramp
    for step in range(pulse.substeps):
        phi = ref_to_momentum(grid, psi)
        kinetic = np.exp(-0.5j * grid.p * grid.p * dt / mass)
        psi = ref_to_position(grid, phi * kinetic)
        psi = psi * (half_ramp * half_ramp if step < pulse.substeps - 1 else half_ramp)
    return psi


# On the default grid p_min z is a multiple of pi, so exp(i p_min z) is +-1
# to rounding; the off-centre grid makes every phase factor a generic number.
@pytest.fixture(params=[wp.default_grid(), GridSpec(512, -11.3, 12.9)],
                ids=["default", "off_centre"])
def phi(request):
    """A complex, off-centre packet."""
    grid = request.param
    gauss = wp.gaussian_init(GaussianParams(width=0.9, mean=0.3), grid)
    return MomentumWavefunction(grid, gauss.amplitudes * np.exp(0.7j * grid.p))


def test_to_position(phi):
    got = wp.to_position(phi).amplitudes
    assert np.array_equal(got, ref_to_position(phi.grid, phi.amplitudes))


def test_to_momentum(phi):
    psi = ref_to_position(phi.grid, phi.amplitudes)
    got = wp.to_momentum(PositionWavefunction(phi.grid, psi)).amplitudes
    assert np.array_equal(got, ref_to_momentum(phi.grid, psi))


@pytest.mark.parametrize("delta", [0.2, -1.3, 1e-7])
def test_shift(phi, delta):
    grid = phi.grid
    expected = ref_to_momentum(
        grid, ref_to_position(grid, phi.amplitudes) * np.exp(1j * delta * grid.z))
    assert np.array_equal(wp.shift(phi, delta).amplitudes, expected)


def test_free_propagate(phi):
    grid, time, mass = phi.grid, 1.7, 3.0
    psi = wp.to_position(phi)
    got = ss.free_propagate(psi, time, PropagationConfig(mass=mass)).amplitudes
    p = grid.p
    expected = ref_to_position(
        grid, ref_to_momentum(grid, psi.amplitudes) * np.exp(-0.5j * p * p * time / mass))
    assert np.array_equal(got, expected)


def test_apply_impulse_16_substeps(phi):
    pulse = ImpulsePulse(force=1.3, duration=0.4, substeps=16)
    psi = wp.to_position(phi)
    got = ss.apply_impulse(psi, pulse, PropagationConfig(mass=2.0)).amplitudes
    assert np.array_equal(got, ref_apply_impulse(phi.grid, psi.amplitudes, pulse, 2.0))


def test_phase_factors_built_lazily_once():
    grid = wp.default_grid(256)
    gauss = wp.gaussian_init(GaussianParams(), grid)
    cached = ("_signs", "_z_factor", "_p_ramp")
    assert not any(name in vars(grid) for name in cached)
    wp.shift(gauss, 0.1)
    first = [vars(grid)[name] for name in cached]
    wp.shift(gauss, 0.2)
    assert all(vars(grid)[name] is array for name, array in zip(cached, first))
