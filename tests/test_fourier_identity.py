"""The grid's cached Fourier pair rounds exactly like the transforms written out.

Each reference below is the plain expression, with every phase factor built
on the spot.  The comparisons are np.array_equal, not allclose: caching a
factor or dropping a wrapper object must not move a single bit.  Where the
code leaves out factors that cancel exactly (the split-step loop's (-1)^k
pair, the n of the inverse FFT), the bytes are compared too, since
np.array_equal does not see the sign of a zero.
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


def assert_same_bytes(got, expected):
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


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
    assert_same_bytes(got, ref_to_position(phi.grid, phi.amplitudes))


def test_to_momentum(phi):
    psi = ref_to_position(phi.grid, phi.amplitudes)
    got = wp.to_momentum(PositionWavefunction(phi.grid, psi)).amplitudes
    assert np.array_equal(got, ref_to_momentum(phi.grid, psi))


@pytest.mark.parametrize("delta", [0.2, -1.3, 1e-7])
def test_shift(phi, delta):
    grid = phi.grid
    expected = ref_to_momentum(
        grid, ref_to_position(grid, phi.amplitudes) * np.exp(1j * delta * grid.z))
    assert_same_bytes(wp.shift(grid, phi.amplitudes, delta), expected)


def test_momentum_phase_is_the_signed_round_trip(phi):
    grid = phi.grid
    psi = wp.to_position(phi).amplitudes
    phase = np.exp(-0.3j * grid.p * grid.p)
    expected = grid.p_to_z(grid.z_to_p(psi) * phase)
    work = psi.copy()
    assert_same_bytes(grid.momentum_phase(work, phase), expected)


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
    assert_same_bytes(got, ref_apply_impulse(phi.grid, psi.amplitudes, pulse, 2.0))


@pytest.mark.parametrize("substeps", [1, 400])
def test_apply_impulse_substep_counts(phi, substeps):
    """One substep has no merged ramp; 400 (the benchmark's pulse) repeat it many times."""
    pulse = ImpulsePulse(force=0.9, duration=0.3, substeps=substeps)
    psi = wp.to_position(phi)
    before = psi.amplitudes.copy()
    got = ss.apply_impulse(psi, pulse, PropagationConfig(mass=1e4)).amplitudes
    assert_same_bytes(got, ref_apply_impulse(phi.grid, before, pulse, 1e4))
    assert_same_bytes(psi.amplitudes, before)  # the loop works on its own copy


def test_phase_factors_built_lazily_once():
    grid = wp.GridSpec(256, -16.0, 16.0)
    gauss = wp.gaussian_init(GaussianParams(), grid)
    cached = ("_signs", "_z_factor", "_p_ramp")
    assert not any(name in vars(grid) for name in cached)
    wp.shift(grid, gauss.amplitudes, 0.1)
    first = [vars(grid)[name] for name in cached]
    wp.shift(grid, gauss.amplitudes, 0.2)
    assert all(vars(grid)[name] is array for name, array in zip(cached, first))


#: p_min < 0 (centred and off-centre), p_min = 0 and p_min > 0
RAMP_WINDOWS = [(-16.0, 16.0), (-11.3, 12.9), (0.0, 8.0), (2.5, 7.0)]


@pytest.mark.parametrize("window", RAMP_WINDOWS, ids=["centred", "off_centre", "from_0", "past_0"])
@pytest.mark.parametrize("n", [2 ** m for m in range(1, 18)])
def test_ramps_are_the_plain_exp(n, window):
    """The half-grid ramps, pinned against np.exp on every node.

    A signed zero, a kick whose product with dz underflows (5e-324) and
    one that does not (1e-310) must all round like np.exp.
    """
    grid = GridSpec(n, *window)
    assert_same_bytes(grid._p_ramp, np.exp(-1j * grid.p_min * grid.z))
    assert_same_bytes(grid._z_factor, grid.dp / np.sqrt(2.0 * np.pi)
                      * np.conj(np.exp(-1j * grid.p_min * grid.z)))
    guard = (grid.p_max - grid.p_min) / 4
    edge = np.nextafter(guard, 0.0)
    for delta in (0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.2, -1.3, edge, -edge):
        assert_same_bytes(grid.kick_ramp(delta), np.exp(1j * delta * grid.z))


def test_first_shift_evaluates_exp_on_half_the_grid(monkeypatch):
    """A structural guard: the p ramp and the kick ramp each take exp on n/2 + 1 nodes."""
    grid = wp.GridSpec(256, -16.0, 16.0)
    gauss = wp.gaussian_init(GaussianParams(), grid)
    evaluated, exp = [], np.exp

    def counting_exp(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    wp.shift(grid, gauss.amplitudes, 0.1)
    assert 0 < sum(evaluated) <= grid.n_points + 2  # 2n with exp on every node
