"""Two-path pipeline: beam splitters, kicks, post-selection, conservation."""

import re

import numpy as np
import pytest

from qif import interferometer as mzi
from qif import wavepacket as wp
from qif.errors import QifError
from qif.interferometer import BeamSplitterCoeffs
from qif.wavepacket import GaussianParams, MomentumWavefunction


class TestBeamSplitter:
    def test_unitarity_of_coefficients(self):
        for t in (0.0, 0.3, 1 / np.sqrt(2), 0.85, 1.0):
            bs = BeamSplitterCoeffs(t)
            assert bs.t ** 2 + bs.r ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [-0.1, 1.1])
    def test_range_check(self, t):
        with pytest.raises(ValueError):
            BeamSplitterCoeffs(t)

    def test_full_transmission(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(1.0))
        assert wp.norm(state.path_b) == 0.0
        np.testing.assert_array_equal(state.path_a.amplitudes, gauss.amplitudes)

    def test_full_reflection(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.0))
        assert wp.norm(state.path_a) == 0.0
        np.testing.assert_allclose(state.path_b.amplitudes, 1j * gauss.amplitudes)

    def test_balanced(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(1 / np.sqrt(2)))
        assert wp.norm(state.path_a) == pytest.approx(0.5, abs=1e-10)
        assert wp.norm(state.path_b) == pytest.approx(0.5, abs=1e-10)


class TestApplyKick:
    def test_noop(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        kicked = mzi.apply_kick(state, 0.0)
        np.testing.assert_array_equal(kicked.path_b.amplitudes, state.path_b.amplitudes)

    def test_kick_moves_arm_b_only(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        kicked = mzi.apply_kick(state, 0.2)
        np.testing.assert_array_equal(kicked.path_a.amplitudes, state.path_a.amplitudes)
        assert wp.mean_momentum(kicked.path_b) == pytest.approx(0.2, abs=1e-9)
        assert wp.norm(kicked.path_b) == pytest.approx(1 - 0.85 ** 2, abs=1e-10)

    def test_pi_phase_negates(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        plain = mzi.apply_kick(state, 0.2)
        flipped = mzi.apply_kick(state, 0.2, alpha=np.pi)
        np.testing.assert_allclose(
            flipped.path_b.amplitudes, -plain.path_b.amplitudes, atol=1e-12
        )

    def test_alpha_is_beta_plus_gamma(self, gauss):
        # propagation phase beta then kick phase gamma act as one alpha
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        twice = mzi.phase(mzi.phase(state, "B", 0.3), "B", 0.4)
        once = mzi.phase(state, "B", 0.7)
        np.testing.assert_allclose(twice.path_b.amplitudes, once.path_b.amplitudes,
                                   atol=1e-12)
        np.testing.assert_array_equal(twice.path_a.amplitudes, state.path_a.amplitudes)


class TestRecombine:
    def test_dark_port(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(1 / np.sqrt(2)))
        raw_c, _ = mzi.recombine(mzi.apply_kick(state, 0.0))
        assert wp.norm(raw_c) == pytest.approx(0.0, abs=1e-15)

    def test_port_probability(self, gauss):
        state = mzi.apply_kick(
            mzi.split(gauss, BeamSplitterCoeffs(0.85)), 0.2
        )
        raw_c, raw_d = mzi.recombine(state)
        assert wp.norm(raw_c) == pytest.approx(0.05669005452584719, abs=1e-9)
        assert abs(wp.norm(raw_c) - 0.057) < 1e-3
        assert wp.norm(raw_c) + wp.norm(raw_d) == pytest.approx(1.0, abs=1e-9)

    def test_matches_port_wavefunctions(self, gauss):
        # raw_c must equal (t Phi(p) - r e^(i alpha) Phi(p-delta)) / sqrt(2)
        t, delta, alpha = 0.6, 0.5, 1.1
        r = np.sqrt(1 - t * t)
        state = mzi.apply_kick(
            mzi.split(gauss, BeamSplitterCoeffs(t)), delta, alpha
        )
        raw_c, raw_d = mzi.recombine(state)
        shifted = wp.shift(gauss, delta)
        expect_c = (t * gauss.amplitudes
                    - r * np.exp(1j * alpha) * shifted.amplitudes) / np.sqrt(2)
        expect_d = (t * gauss.amplitudes
                    + r * np.exp(1j * alpha) * shifted.amplitudes) / np.sqrt(2)
        np.testing.assert_allclose(raw_c.amplitudes, expect_c, atol=1e-12)
        np.testing.assert_allclose(raw_d.amplitudes, expect_d, atol=1e-12)


class TestPortStats:
    def test_anomalous_mean(self, gauss):
        out_c, out_d = mzi.run_mzi(gauss, 0.85, 0.2)
        assert out_c.mean_p == pytest.approx(-0.2924850696669441, abs=1e-9)
        assert -0.31 < out_c.mean_p < -0.27
        assert out_d.mean_p > 0

    def test_dark_port_flag(self, grid):
        zero = MomentumWavefunction(grid, np.zeros(grid.n_points, dtype=complex))
        out = mzi.port_stats(zero, "C")
        assert out.probability == 0.0
        assert out.is_dark
        assert np.isnan(out.mean_p)

    def test_normalized_wavefunction(self, gauss):
        out_c, _ = mzi.run_mzi(gauss, 0.85, 0.2)
        assert wp.norm(out_c.wavefunction) == pytest.approx(1.0, abs=1e-10)


class TestConservation:
    def test_residual_small_for_random_parameters(self, gauss, rng):
        for _ in range(50):
            t = rng.uniform(0.0, 1.0)
            delta = rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            out_c, out_d = mzi.run_mzi(gauss, t, delta, alpha)
            assert mzi.conservation_residual(out_c.probability, out_c.mean_p, out_d.probability,
                                             out_d.mean_p, t, delta) <= 1e-8

    def test_broadcast_equals_scalar_loop(self, rng):
        p_c, t, delta = rng.uniform(0.0, 1.0, (3, 40))
        mean_c, mean_d = rng.normal(0.0, 2.0, (2, 40))
        mean_c[::5] = np.nan  # dark ports
        mean_d[2::7] = np.nan
        mean_in = -0.37
        got = mzi.conservation_residual(p_c, mean_c, 1.0 - p_c, mean_d, t, delta, mean_in)
        want = []
        for pc, mc, md, tk, dk in zip(p_c.tolist(), mean_c.tolist(), mean_d.tolist(),
                                      t.tolist(), delta.tolist()):
            moment = ((0.0 if np.isnan(mc) else pc * mc)
                      + (0.0 if np.isnan(md) else (1.0 - pc) * md))
            want.append(abs(moment - (tk * tk * mean_in + (1.0 - tk * tk) * (mean_in + dk))))
        assert np.array_equal(got, want)
        assert mzi.conservation_residual(0.5, np.nan, 0.5, 0.4, 0.6, 1.0) == abs(0.2 - 0.64)

    def test_check_refuses_just_above_unitarity_limit(self):
        mzi.check_ports(0.5, np.nan, 0.5 + 0.9e-9, np.nan, 1.0, 0.0)
        with pytest.raises(QifError, match=r"unitarity violated at t=1.0, delta=0.0"):
            mzi.check_ports(0.5, np.nan, 0.5 + 1.1e-9, np.nan, 1.0, 0.0)

    @pytest.mark.parametrize("delta", [1.0, 1e200])
    def test_check_refuses_just_above_conservation_limit(self, delta):
        limit = mzi.CONSERVATION_TOLERANCE * max(1.0, delta / 100.0)
        balance = (1.0 - 0.6 * 0.6) * delta  # P_C = P_D = 1/2: the residual is half the excess
        residual = mzi.check_ports(0.5, balance + 1.8 * limit, 0.5, balance, 0.6, delta)
        assert residual == pytest.approx(0.9 * limit, rel=1e-5)
        with pytest.raises(QifError, match=re.escape(f"conservation violated at t=0.6, "
                                                     f"delta={delta}")):
            mzi.check_ports(0.5, balance + 2.2 * limit, 0.5, balance, 0.6, delta)

    def test_check_names_first_failing_cell(self):
        tt, dd = np.meshgrid([0.2, 0.4], [0.0, 1.0, 2.0], indexing="ij")
        p_c, p_d = np.full(tt.shape, 0.5), np.full(tt.shape, 0.5)
        p_c[1, 0] += 1e-6  # unitarity breaks at (0.4, 0)
        mean = (1.0 - tt * tt) * dd
        with pytest.raises(QifError, match=r"unitarity violated at t=0.4, delta=0.0"):
            mzi.check_ports(p_c, mean, p_d, mean, tt, dd)
        mean[0, 2] += 1.0  # conservation breaks at (0.2, 2), earlier in t-major order
        with pytest.raises(QifError, match=r"conservation violated at t=0.2, delta=2.0"):
            mzi.check_ports(p_c, mean, p_d, mean, tt, dd)

    def test_no_kick_path(self, gauss):
        out_c, out_d = mzi.run_mzi(gauss, 1.0, 0.2)
        total = out_c.probability * out_c.mean_p + out_d.probability * out_d.mean_p
        assert abs(total) <= 1e-8

    def test_weighted_sum_equals_r_squared_delta(self, gauss):
        out_c, out_d = mzi.run_mzi(gauss, 0.85, 0.2)
        total = out_c.probability * out_c.mean_p + out_d.probability * out_d.mean_p
        assert total == pytest.approx(0.2775 * 0.2, abs=1e-9)


class TestPipelineProperties:
    def test_unitarity(self, gauss, rng):
        for _ in range(30):
            t = rng.uniform(0.0, 1.0)
            delta = rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            out_c, out_d = mzi.run_mzi(gauss, t, delta, alpha)
            assert out_c.probability + out_d.probability == pytest.approx(1.0, abs=1e-9)

    def test_alpha_periodicity(self, gauss):
        base_c, base_d = mzi.run_mzi(gauss, 0.7, 0.4, 0.3)
        per_c, per_d = mzi.run_mzi(gauss, 0.7, 0.4, 0.3 + 2 * np.pi)
        assert per_c.probability == pytest.approx(base_c.probability, abs=1e-9)
        assert per_c.mean_p == pytest.approx(base_c.mean_p, abs=1e-9)
        assert per_d.mean_p == pytest.approx(base_d.mean_p, abs=1e-9)

    def test_port_swap_under_alpha_plus_pi(self, gauss, rng):
        for _ in range(10):
            t = rng.uniform(0.1, 0.95)
            delta = rng.uniform(0.05, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            out_c, out_d = mzi.run_mzi(gauss, t, delta, alpha)
            sw_c, sw_d = mzi.run_mzi(gauss, t, delta, alpha + np.pi)
            assert sw_c.probability == pytest.approx(out_d.probability, abs=1e-9)
            assert sw_d.probability == pytest.approx(out_c.probability, abs=1e-9)
            assert sw_c.mean_p == pytest.approx(out_d.mean_p, abs=1e-9)
            assert sw_d.mean_p == pytest.approx(out_c.mean_p, abs=1e-9)

    def test_no_anomaly_for_large_kick(self):
        # overlap exp(-delta^2/4) < 1e-7 kills the cross term: no anomaly;
        # needs a wider grid so delta = 8.1 clears the aliasing guard
        wide_grid = wp.GridSpec(8192, -40.0, 40.0)
        wide = wp.gaussian_init(GaussianParams(), wide_grid)
        for t in (0.3, 1 / np.sqrt(2), 0.85):
            out_c, _ = mzi.run_mzi(wide, t, 8.1)
            assert out_c.mean_p >= -1e-6

    def test_anomalous_region_exists(self, gauss):
        out_c, out_d = mzi.run_mzi(gauss, 0.85, 0.2)
        assert out_c.mean_p < 0 < out_d.mean_p
