"""Split-step propagation and the impulsive-kick approximation."""

import re
import warnings

import numpy as np
import pytest

from qif import analytic, interferometer as mzi, splitstep as ss, wavepacket as wp
from qif.errors import (AliasingError, BoundaryLeakError, GridMismatchError, ParameterError,
                        ZeroNormError)
from qif.splitstep import ImpulsePulse
from qif.wavepacket import GaussianParams, PositionWavefunction
from test_fourier_identity import ref_mzi_splitstep


@pytest.fixture(scope="module")
def psi0():
    grid = wp.default_grid()
    return wp.to_position(wp.gaussian_init(GaussianParams(), grid))


#: force, duration and mass of pulses refused at construction, one fault each
PULSE_FAULTS = [(np.inf, 0.2, 1.0), (1.0, np.inf, 1.0), (1.0, np.nan, 1.0), (np.nan, 0.2, 1.0),
                (1.0, -0.1, 1.0), (1.0, 0.2, 0.0), (1.0, 0.2, -1.0), (1.0, 0.2, np.inf),
                (1.0, 0.2, np.nan)]


def _position_std(psi):
    prob = np.abs(psi.amplitudes) ** 2 * psi.grid.dz
    mean = float(np.sum(psi.grid.z * prob) / prob.sum())
    return float(np.sqrt(np.sum((psi.grid.z - mean) ** 2 * prob) / prob.sum()))


class TestFreePropagate:
    def test_zero_time_identity(self, psi0):
        out = ss.free_propagate(psi0, 0.0)
        np.testing.assert_array_equal(out.amplitudes, psi0.amplitudes)

    @pytest.mark.parametrize("time", [0.5, 1.0, 3.0])
    def test_gaussian_spreading_law(self, psi0, time):
        # sigma(t) = sigma0 sqrt(1 + (t / (2 m sigma0^2))^2), hbar = 1
        sigma0 = _position_std(psi0)
        out = ss.free_propagate(psi0, time, mass=1.0)
        expected = sigma0 * np.sqrt(1 + (time / (2 * sigma0 ** 2)) ** 2)
        assert _position_std(out) == pytest.approx(expected, abs=1e-6)

    def test_momentum_distribution_unchanged(self, psi0):
        before = wp.to_momentum(psi0)
        after = wp.to_momentum(ss.free_propagate(psi0, 2.0))
        np.testing.assert_allclose(
            np.abs(after.amplitudes), np.abs(before.amplitudes), atol=1e-12
        )

    def test_norm_preserved(self, psi0):
        out = ss.free_propagate(psi0, 5.0)
        assert wp.norm(out) == pytest.approx(wp.norm(psi0), abs=1e-12)

    def test_spread_to_the_window_edges_refused(self, psi0):
        # free flight is a zero-force pulse, so it runs under the pulse's leak guard
        with pytest.raises(BoundaryLeakError, match=r"probability at window edges: 8\.660e-03$"):
            ss.free_propagate(psi0, 200.0)

    @pytest.mark.parametrize("time", [-0.1, np.nan])
    def test_negative_or_nan_time_refused(self, psi0, time):
        with pytest.raises(ParameterError, match="duration must be finite and non-negative"):
            ss.free_propagate(psi0, time)


class TestApplyImpulse:
    def test_zero_duration_identity(self, psi0):
        out = ss.apply_impulse(psi0, ImpulsePulse(force=1.0, duration=0.0))
        np.testing.assert_array_equal(out.amplitudes, psi0.amplitudes)

    def test_quasi_static_kick_keeps_form(self, psi0):
        # heavy particle: dispersion negligible over the pulse
        pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=64, mass=1e4)
        out = ss.apply_impulse(psi0, pulse)
        assert ss.kick_fidelity(psi0, out, 0.2) >= 0.999

    def test_ehrenfest_mean_shift_exact(self, psi0):
        # linear potential: mean momentum gain is exactly F*tau at any tau
        for tau, substeps in ((0.2, 16), (50.0, 64), (2000.0, 256)):
            pulse = ImpulsePulse(force=0.2 / tau, duration=tau, substeps=substeps, mass=1e4)
            out = ss.apply_impulse(psi0, pulse)
            gain = wp.mean_momentum(wp.to_momentum(out)) - wp.mean_momentum(
                wp.to_momentum(psi0)
            )
            assert gain == pytest.approx(0.2, abs=1e-9)

    def test_long_pulse_deforms_packet(self, psi0):
        # tau comparable to the dispersion time m/W^2: same total kick, but
        # the packet no longer keeps its form
        pulse = ImpulsePulse(force=0.2 / 2000.0, duration=2000.0, substeps=256, mass=1e4)
        out = ss.apply_impulse(psi0, pulse)
        assert ss.kick_fidelity(psi0, out, 0.2) < 0.999

    def test_impulsive_limit_monotone(self, psi0):
        fidelities = []
        for tau in (2.0, 0.5, 0.1, 0.02):
            pulse = ImpulsePulse(force=0.2 / tau, duration=tau, substeps=128, mass=1.0)
            out = ss.apply_impulse(psi0, pulse)
            fidelities.append(ss.kick_fidelity(psi0, out, 0.2))
        assert fidelities == sorted(fidelities)
        # deficit is O(tau^2): ~ tau^2 var(p^2) / 8 ~ 2.5e-5 at tau = 0.02
        assert fidelities[-1] > 0.9999

    def test_norm_conservation_many_steps(self, psi0):
        pulse = ImpulsePulse(force=0.01, duration=10.0, substeps=10000, mass=1e4)
        out = ss.apply_impulse(psi0, pulse)
        assert abs(wp.norm(out) - wp.norm(psi0)) <= 1e-9

    def test_zero_state_stays_zero(self, psi0):
        # no norm, so no edge fraction to judge: the pulse runs and leaves zeros
        zero = PositionWavefunction(psi0.grid, np.zeros(psi0.grid.n_points, dtype=complex))
        out = ss.apply_impulse(zero, ImpulsePulse(force=1.0, duration=0.2, substeps=4))
        assert not np.any(out.amplitudes)

    def test_non_finite_substep_refused(self, psi0):
        # dt / mass overflows: the whole pulse's kinetic check, p_edge^2 tau (1/m),
        # refuses mass=1e-320 before any phase array is built
        pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=4, mass=1e-320)
        with np.errstate(all="ignore"), pytest.raises(ParameterError,
                                                       match="non-finite amplitudes"):
            ss.apply_impulse(psi0, pulse)

    @pytest.mark.parametrize("force, duration, mass", PULSE_FAULTS, ids=[
        f"{f}-{d}" if m == 1.0 else f"mass={m}" for f, d, m in PULSE_FAULTS])
    def test_pulse_refuses_non_finite_or_negative(self, force, duration, mass):
        message = ("must be finite" if mass == 1.0
                   else re.escape(f"mass must be positive and finite, got {mass}"))
        with pytest.raises(ParameterError, match=message):
            ImpulsePulse(force=force, duration=duration, mass=mass)

    @pytest.mark.parametrize("substeps", [2.5, 2.0, np.float64(3.0), "4"])
    def test_pulse_refuses_a_step_count_that_is_not_an_integer(self, substeps):
        with pytest.raises(ParameterError, match="substeps must be an integer"):
            ImpulsePulse(force=1.0, duration=0.2, substeps=substeps)

    def test_numpy_integer_step_count_accepted(self, psi0):
        out = ss.apply_impulse(psi0, ImpulsePulse(force=1.0, duration=0.2, substeps=np.int64(4)))
        expected = ss.apply_impulse(psi0, ImpulsePulse(force=1.0, duration=0.2, substeps=4))
        np.testing.assert_array_equal(out.amplitudes, expected.amplitudes)

    def test_boundary_leak_detected(self):
        # packet parked at the window edge must be refused
        grid = wp.default_grid(256)
        z = grid.z
        edge = z[-3]
        amp = np.exp(-0.5 * ((z - edge) / 2.0) ** 2).astype(complex)
        psi = PositionWavefunction(grid, amp)
        with pytest.raises(BoundaryLeakError):
            ss.apply_impulse(psi, ImpulsePulse(force=1.0, duration=0.1, substeps=4))


class TestPropagateOracle:
    """What `qif propagate` prints, against closed forms: the Strang product keeps the
    p^2 tau/2m and p F tau^2/2m phases of the exact pulse at any substep count."""

    @pytest.mark.parametrize("force, tau, substeps, mass", [
        (1, 0.2, 64, 1e4), (0.1, 2, 128, 1), (1e-4, 2000, 256, 1e4), (0.5, 1, 7, 1),
        (2, 0.5, 400, 0.5), (0.3, 0.5, 1, 2)])
    def test_fidelity_and_mean_shift(self, psi0, force, tau, substeps, mass):
        pulse = ImpulsePulse(force, tau, substeps, mass)
        after = ss.apply_impulse(psi0, pulse)
        a, b = tau / (2 * mass), force * tau ** 2 / (2 * mass)
        fidelity = (1 + a * a) ** -0.25 * np.exp(-b * b / (4 * (1 + a * a)))
        assert abs(ss.kick_fidelity(psi0, after, pulse.delta) - fidelity) <= 1e-15
        shift = wp.mean_momentum(wp.to_momentum(after)) - wp.mean_momentum(wp.to_momentum(psi0))
        assert abs(shift - force * tau) <= 1e-15  # the loop's rounding reached 3.1e-14


class TestKickFidelity:
    def test_exact_shift_gives_one(self, psi0):
        shifted = PositionWavefunction(psi0.grid, psi0.amplitudes * np.exp(0.7j * psi0.grid.z))
        assert ss.kick_fidelity(psi0, shifted, 0.7) == pytest.approx(1.0, abs=1e-10)

    def test_unshifted_gaussian_overlap(self, psi0):
        # |<shift(Phi, 2W)|Phi>| = exp(-delta^2 / 4 W^2) = e^-1 for a Gaussian
        fid = ss.kick_fidelity(psi0, psi0, 2.0)
        assert fid == pytest.approx(analytic.gaussian_overlap(2.0), abs=1e-10)
        assert fid == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_grid_mismatch_refused(self, psi0):
        coarse = wp.to_position(wp.gaussian_init(GaussianParams(), wp.default_grid(512)))
        with pytest.raises(GridMismatchError, match="shared grid"):
            ss.kick_fidelity(psi0, coarse, 0.2)

    def test_orthogonal_states(self, psi0):
        # odd parity vs even parity: exactly orthogonal
        odd = PositionWavefunction(psi0.grid, psi0.amplitudes * psi0.grid.z)
        assert ss.kick_fidelity(psi0, odd, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_target_that_wraps_refused_as_shift_refuses_it(self):
        # inside the quarter-span guard of 4, yet 0.15% of the norm would land past p_max
        source = wp.gaussian_init(GaussianParams(1.0, 2.0), wp.GridSpec(256, -8.0, 8.0))
        with pytest.raises(AliasingError) as shifted:
            wp.shift(source.grid, source.amplitudes, 3.9)
        before = wp.to_position(source)
        with pytest.raises(AliasingError) as fidelity:
            ss.kick_fidelity(before, before, 3.9)
        assert str(fidelity.value) == str(shifted.value)
        # the pulse that delivers the kick (19.5 * 0.2) meets the same guard
        pulse = ImpulsePulse(19.5, 0.2, 64, 1e4)
        state = mzi.split(source, mzi.BeamSplitterCoeffs(0.5))
        for run in (lambda: ss.apply_impulse(before, pulse),
                    lambda: mzi.kick(state, "B", pulse.delta)):  # the pulse in an interferometer
            with pytest.raises(AliasingError) as pulsed:
                run()
            assert str(pulsed.value) == ("delta=3.9000000000000004 moves 0.00153 of the norm "
                                         "past the grid edge")

    def test_dark_state_refused(self, psi0):
        zero = PositionWavefunction(psi0.grid, np.zeros(psi0.grid.n_points, dtype=complex))
        for before, after in ((zero, zero), (psi0, zero), (zero, psi0)):
            with pytest.raises(ZeroNormError, match="^norm 0.0 below dark-port threshold$"):
                ss.kick_fidelity(before, after, 0.1)


class TestPipelineEquivalence:
    def test_splitstep_arm_matches_analytic(self, gauss):
        pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=64, mass=1e4)
        out_c, out_d = ref_mzi_splitstep(gauss, 0.85, pulse)
        s = analytic.closed_form_stats(0.85, 0.2, 0.0)
        assert out_c.probability == pytest.approx(s.p_c, abs=1e-4)
        assert out_c.mean_p == pytest.approx(s.mean_c, abs=1e-4)
        assert out_d.probability == pytest.approx(s.p_d, abs=1e-4)
        assert out_d.mean_p == pytest.approx(s.mean_d, abs=1e-4)

    def test_pulse_is_a_kick_a_displacement_and_a_phase(self, gauss, rng):
        """Against arm A's free flight, arm B's pulse is the kick delta = F tau, the phase
        e^(i p d) of a displacement d = delta tau/2m and the constant e^(-i theta'): theta' is
        delta^2 tau/6m less the Strang error F^2 tau dt^2/24m.  Arm A's e^(-i p^2 tau/2m) is
        common to both arms and drops out of P and <p>."""
        grid = gauss.grid
        for _ in range(12):
            t, pulse = rng.uniform(0.05, 0.95), ImpulsePulse(
                rng.uniform(-3, 3), rng.uniform(0.01, 1), int(rng.integers(1, 65)),
                10 ** rng.uniform(-0.5, 3))
            delta, tau, mass = pulse.delta, pulse.duration, pulse.mass
            strang = (pulse.force * tau / pulse.substeps) ** 2 * tau / (24 * mass)
            theta = delta * delta * tau / (6 * mass) - strang
            kicked = mzi.kick(mzi.split(gauss, mzi.BeamSplitterCoeffs(t)), "B", delta)
            got = mzi.exit_ports(mzi.phase(kicked, "B", delta * tau / (2 * mass) * grid.p - theta))
            for port, ref in zip(got, ref_mzi_splitstep(gauss, t, pulse)):
                assert abs(port.probability - ref.probability) <= 1e-12, (t, pulse)
                assert abs(port.mean_p - ref.mean_p) <= 1e-12, (t, pulse)

    def test_free_arm_refuses_an_overflowing_kinetic_phase(self, gauss):
        # free flight holds the same check as the kick, before numpy warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"kinetic phase p\^2 dt/m overflows "
                                                     r"at mass=1e-307, dt=0.2"):
                ss.free_propagate(wp.to_position(gauss), 0.2, mass=1e-307)
