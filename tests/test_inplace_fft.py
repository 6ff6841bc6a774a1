"""The grid's FFTs run in place, in buffers the kernels own, and round exactly as before.

Each reference is the plain out-of-place expression, a new array for every product
and every FFT, with the grid's cached factors as operands in the same order.  The
in-place kernels must give the same bytes, must not write into a caller's array or a
grid cache, and allocate one complex grid array per kick; a pulse's peak allocation does
not grow with its substep count.
A pulse of more than one substep is multiplied out in closed form, so for packets clear
of the window edges it matches the loop written out within 1e-12 of the peak, not to the bit.
"""

import tracemalloc

import numpy as np
import pytest

from qif import splitstep as ss, wavepacket as wp
from qif.splitstep import ImpulsePulse
from qif.wavepacket import GaussianParams, GridSpec, PositionWavefunction

GRIDS = {
    "n256": lambda: wp.default_grid(256),
    "n4096": lambda: wp.default_grid(4096),
    "off_centre": lambda: GridSpec(512, -11.3, 12.9),
}
DELTAS = [*np.random.default_rng(20).uniform(-3.0, 3.0, 50), 0.0, -0.0]
CACHED_ARRAYS = ("p", "z", "_signs", "_p_ramp", "_z_factor")


def ref_p_to_z(grid, phi):
    return np.fft.ifft(phi * grid._signs, norm="forward") * grid._z_factor


def ref_z_to_p(grid, psi):
    return np.fft.fft(psi * grid._p_ramp) * grid._signs * grid._p_scale


def ref_shift(grid, amp, delta):
    if delta == 0.0:
        return amp
    return ref_z_to_p(grid, ref_p_to_z(grid, amp) * np.exp(1j * delta * grid.z))


def ref_apply_impulse(grid, psi, pulse):
    dt = pulse.duration / pulse.substeps
    kinetic = np.exp(-0.5j * grid.p * grid.p * dt / 1.0)
    half_ramp = np.exp(0.5j * pulse.force * grid.z * dt)
    ramp = half_ramp * half_ramp
    psi = psi * half_ramp
    for step in range(pulse.substeps):
        phi = np.fft.fft(psi * grid._p_ramp) * grid._p_scale * kinetic
        psi = np.fft.ifft(phi, norm="forward") * grid._z_factor
        psi = psi * (ramp if step < pulse.substeps - 1 else half_ramp)
    return psi


def assert_same_bytes(got, expected):
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(params=list(GRIDS), ids=list(GRIDS))
def grid(request):
    return GRIDS[request.param]()


def packet(grid):
    """A complex, off-centre packet; its amplitudes are read-only."""
    gauss = wp.gaussian_init(GaussianParams(width=0.9, mean=0.3), grid)
    return wp.MomentumWavefunction(grid, gauss.amplitudes * np.exp(0.7j * grid.p)).amplitudes


def test_shift_amplitudes(grid):
    amp = packet(grid)
    for delta in DELTAS:
        assert_same_bytes(wp.shift(grid, amp, delta), ref_shift(grid, amp, delta))


def test_fourier_pair(grid):
    amp = packet(grid)
    for delta in DELTAS:
        phi = amp * np.exp(1j * delta * grid.p)
        assert_same_bytes(grid.p_to_z(phi), ref_p_to_z(grid, phi))
        psi = ref_p_to_z(grid, phi)
        assert_same_bytes(grid.z_to_p(psi), ref_z_to_p(grid, psi))


@pytest.mark.parametrize("substeps", [1, 7, 64])
def test_apply_impulse(grid, substeps):
    psi = PositionWavefunction(grid, ref_p_to_z(grid, packet(grid)))
    for delta in DELTAS:
        pulse = ImpulsePulse(delta / 0.5, 0.5, substeps)
        got = ss.apply_impulse(psi, pulse).amplitudes
        expected = ref_apply_impulse(grid, psi.amplitudes, pulse)
        if substeps == 1:
            assert_same_bytes(got, expected)
        else:  # the loop's rounding: at most 3e-14 of the peak at 64 substeps
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_z_to_p_into_its_input(grid):
    for delta in DELTAS:
        psi = ref_p_to_z(grid, packet(grid) * np.exp(1j * delta * grid.p))
        expected = grid.z_to_p(psi)
        assert grid.z_to_p(psi, out=psi) is psi
        assert_same_bytes(psi, expected)


def test_read_only_inputs_and_caches_are_left_alone(grid):
    amp = packet(grid)
    psi = PositionWavefunction(grid, ref_p_to_z(grid, amp))
    kept = amp.tobytes(), psi.amplitudes.tobytes()
    outputs = [wp.shift(grid, amp, 1.1), grid.p_to_z(amp),
               grid.z_to_p(psi.amplitudes), ss.apply_impulse(psi, ImpulsePulse(2.0, 0.5, 7))]
    assert (amp.tobytes(), psi.amplitudes.tobytes()) == kept
    for out in outputs[:3]:
        assert out.flags.writeable and not np.shares_memory(out, amp)
    for array in [getattr(grid, name) for name in CACHED_ARRAYS] + [grid.kick_ramp(1.1)]:
        assert not array.flags.writeable


def peak_bytes(call):
    call()  # the kick ramp and the FFT plan are built outside the count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_array_per_kick_and_none_per_substep():
    grid = wp.default_grid(4096)
    amp, array = packet(grid), 16 * grid.n_points
    assert array <= peak_bytes(lambda: wp.shift(grid, amp, 1.1)) < 2 * array
    psi = PositionWavefunction(grid, ref_p_to_z(grid, amp))
    # in whole arrays: small Python objects move the peak by a few bytes from call to call
    pulse_arrays = {peak_bytes(lambda: ss.apply_impulse(psi, ImpulsePulse(2.0, 0.5, substeps)))
                    // array for substeps in (1, 400)}
    assert len(pulse_arrays) == 1 and max(pulse_arrays) < 4
