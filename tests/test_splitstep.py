"""Split-step propagation and the impulsive-kick approximation."""

import warnings

import numpy as np
import pytest

from qif import analytic, splitstep as ss, wavepacket as wp
from qif.errors import (AliasingError, BoundaryLeakError, GridMismatchError, ParameterError,
                        ZeroNormError)
from qif.splitstep import ImpulsePulse, PropagationConfig
from qif.wavepacket import GaussianParams, PositionWavefunction


@pytest.fixture(scope="module")
def psi0():
    grid = wp.default_grid()
    return wp.to_position(wp.gaussian_init(GaussianParams(), grid))


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
        out = ss.free_propagate(psi0, time, PropagationConfig(mass=1.0))
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
        pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=64)
        out = ss.apply_impulse(psi0, pulse, PropagationConfig(mass=1e4))
        assert ss.kick_fidelity(psi0, out, 0.2) >= 0.999

    def test_ehrenfest_mean_shift_exact(self, psi0):
        # linear potential: mean momentum gain is exactly F*tau at any tau
        for tau, substeps in ((0.2, 16), (50.0, 64), (2000.0, 256)):
            pulse = ImpulsePulse(force=0.2 / tau, duration=tau, substeps=substeps)
            out = ss.apply_impulse(psi0, pulse, PropagationConfig(mass=1e4))
            gain = wp.mean_momentum(wp.to_momentum(out)) - wp.mean_momentum(
                wp.to_momentum(psi0)
            )
            assert gain == pytest.approx(0.2, abs=1e-9)

    def test_long_pulse_deforms_packet(self, psi0):
        # tau comparable to the dispersion time m/W^2: same total kick, but
        # the packet no longer keeps its form
        pulse = ImpulsePulse(force=0.2 / 2000.0, duration=2000.0, substeps=256)
        out = ss.apply_impulse(psi0, pulse, PropagationConfig(mass=1e4))
        assert ss.kick_fidelity(psi0, out, 0.2) < 0.999

    def test_impulsive_limit_monotone(self, psi0):
        config = PropagationConfig(mass=1.0)
        fidelities = []
        for tau in (2.0, 0.5, 0.1, 0.02):
            pulse = ImpulsePulse(force=0.2 / tau, duration=tau, substeps=128)
            out = ss.apply_impulse(psi0, pulse, config)
            fidelities.append(ss.kick_fidelity(psi0, out, 0.2))
        assert fidelities == sorted(fidelities)
        # deficit is O(tau^2): ~ tau^2 var(p^2) / 8 ~ 2.5e-5 at tau = 0.02
        assert fidelities[-1] > 0.9999

    def test_norm_conservation_many_steps(self, psi0):
        pulse = ImpulsePulse(force=0.01, duration=10.0, substeps=10000)
        out = ss.apply_impulse(psi0, pulse, PropagationConfig(mass=1e4))
        assert abs(wp.norm(out) - wp.norm(psi0)) <= 1e-9

    def test_zero_state_stays_zero(self, psi0):
        # no norm, so no edge fraction to judge: the pulse runs and leaves zeros
        zero = PositionWavefunction(psi0.grid, np.zeros(psi0.grid.n_points, dtype=complex))
        out = ss.apply_impulse(zero, ImpulsePulse(force=1.0, duration=0.2, substeps=4))
        assert not np.any(out.amplitudes)

    def test_non_finite_substep_refused(self, psi0):
        # dt / mass overflows, so every kinetic phase is nan: the check on the
        # result still catches it, though no substep builds a wavefunction
        pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=4)
        with np.errstate(all="ignore"), pytest.raises(ParameterError,
                                                       match="non-finite amplitudes"):
            ss.apply_impulse(psi0, pulse, PropagationConfig(mass=1e-320))

    @pytest.mark.parametrize("force, duration", [(np.inf, 0.2), (1.0, np.inf), (1.0, np.nan),
                                                 (np.nan, 0.2), (1.0, -0.1)])
    def test_pulse_refuses_non_finite_or_negative(self, force, duration):
        with pytest.raises(ParameterError, match="must be finite"):
            ImpulsePulse(force=force, duration=duration)

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
        pulse, config = ImpulsePulse(19.5, 0.2, 64), PropagationConfig(1e4)
        for run in (lambda: ss.apply_impulse(before, pulse, config),
                    lambda: ss.run_mzi_splitstep(source, 0.5, pulse, config)):
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
        pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=64)
        out_c, out_d = ss.run_mzi_splitstep(gauss, 0.85, pulse, PropagationConfig(mass=1e4))
        s = analytic.closed_form_stats(0.85, 0.2, 0.0)
        assert out_c.probability == pytest.approx(s.p_c, abs=1e-4)
        assert out_c.mean_p == pytest.approx(s.mean_c, abs=1e-4)
        assert out_d.probability == pytest.approx(s.p_d, abs=1e-4)
        assert out_d.mean_p == pytest.approx(s.mean_d, abs=1e-4)

    def test_free_arm_refuses_an_overflowing_kinetic_phase(self, gauss):
        # arm A's free evolution holds the same check as the kick, before numpy warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"kinetic phase p\^2 dt/m overflows "
                                                     r"at mass=1e-307, dt=0.2"):
                ss.run_mzi_splitstep(gauss, 0.8, ImpulsePulse(1, 0.2, 4),
                                     PropagationConfig(mass=1e-307))
