"""Momentum-space representation: moments, shifts, Fourier pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qif import interferometer as mzi
from qif import spinor, wavepacket as wp
from qif.errors import (AliasingError, GridMismatchError, GridTooNarrowError, ParameterError,
                        ZeroNormError)
from qif.interferometer import TwoPathState
from qif.wavepacket import GaussianParams, GridSpec, MomentumWavefunction


class TestGridSpec:
    def test_basic_properties(self):
        g = GridSpec(8, -4.0, 4.0)
        assert g.dp == 1.0
        np.testing.assert_allclose(g.p, np.arange(-4.0, 4.0))
        assert g.dz * g.dp * g.n_points == pytest.approx(2 * np.pi)

    @pytest.mark.parametrize("n", [0, 1, 3, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            GridSpec(n, -1.0, 1.0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            GridSpec(8, 1.0, 1.0)


class TestGaussianInit:
    def test_peak_value(self, grid):
        # Phi(0) = pi^(-1/4) for W=1, mu=0
        g8 = GridSpec(4096, -8.0, 8.0)
        gauss = wp.gaussian_init(GaussianParams(), g8)
        peak = gauss.amplitudes[g8.n_points // 2]
        assert peak.real == pytest.approx(np.pi ** -0.25, abs=1e-12)
        assert abs(peak.real - 0.7511) < 1e-4

    def test_unit_norm(self, gauss):
        assert wp.norm(gauss) == pytest.approx(1.0, abs=1e-10)

    def test_zero_mean(self, gauss):
        assert wp.mean_momentum(gauss) == pytest.approx(0.0, abs=1e-10)

    def test_translated_mean(self, grid):
        gauss = wp.gaussian_init(GaussianParams(mean=0.5), grid)
        assert wp.mean_momentum(gauss) == pytest.approx(0.5, abs=1e-9)

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridTooNarrowError):
            wp.gaussian_init(GaussianParams(width=4.0), GridSpec(256, -16.0, 16.0))

    def test_unresolved_width_rejected(self, grid):
        # dp = 1/128 on the default grid; the check is dp <= W
        with pytest.raises(GridTooNarrowError, match="resolve"):
            wp.gaussian_init(GaussianParams(width=0.001), grid)
        wp.gaussian_init(GaussianParams(width=grid.dp), grid)

    def test_norm_one_for_many_parameters(self, rng):
        grid = wp.default_grid()
        for _ in range(20):
            w = rng.uniform(0.3, 2.0)
            mu = rng.uniform(-3.0, 3.0)
            gauss = wp.gaussian_init(GaussianParams(width=w, mean=mu), grid)
            assert wp.norm(gauss) == pytest.approx(1.0, abs=1e-10)


class TestNorm:
    def test_zero_state(self, grid):
        zero = MomentumWavefunction(grid, np.zeros(grid.n_points, dtype=complex))
        assert wp.norm(zero) == 0.0

    def test_quadratic_scaling(self, grid, gauss):
        doubled = MomentumWavefunction(grid, 2.0 * gauss.amplitudes)
        assert wp.norm(doubled) == pytest.approx(4.0, abs=1e-9)

    def test_zero_norm_moment_raises(self, grid):
        zero = MomentumWavefunction(grid, np.zeros(grid.n_points, dtype=complex))
        with pytest.raises(ZeroNormError):
            wp.mean_momentum(zero)
        with pytest.raises(ZeroNormError):
            wp.variance_momentum(zero)


class TestVariance:
    def test_unit_width(self, gauss):
        # |Phi|^2 is a Gaussian of std W / sqrt(2)
        assert wp.variance_momentum(gauss) == pytest.approx(0.5, abs=1e-6)

    def test_width_two(self, grid):
        gauss = wp.gaussian_init(GaussianParams(width=2.0), grid)
        assert wp.variance_momentum(gauss) == pytest.approx(2.0, abs=1e-5)

    def test_shift_invariance(self, gauss):
        before = wp.variance_momentum(gauss)
        after = wp.variance_momentum(wp.shift(gauss, 0.7))
        assert after == pytest.approx(before, abs=1e-9)


class TestShift:
    def test_zero_shift_identity(self, gauss):
        shifted = wp.shift(gauss, 0.0)
        np.testing.assert_array_equal(shifted.amplitudes, gauss.amplitudes)

    def test_mean_and_variance(self, gauss):
        shifted = wp.shift(gauss, 0.2)
        assert wp.mean_momentum(shifted) == pytest.approx(0.2, abs=1e-9)
        assert wp.variance_momentum(shifted) == pytest.approx(0.5, abs=1e-9)

    def test_overlap_against_quadrature(self, gauss):
        # independent oracle: numeric quadrature of the Gaussian product
        phi = lambda p: np.pi ** -0.25 * np.exp(-p * p / 2)
        expected, _ = quad(lambda p: phi(p) * phi(p - 1.0), -20, 20)
        shifted = wp.shift(gauss, 1.0)
        measured = wp.overlap(gauss, shifted).real
        assert expected == pytest.approx(np.exp(-0.25), abs=1e-12)
        assert measured == pytest.approx(expected, abs=1e-10)

    def test_aliasing_guard(self, gauss):
        with pytest.raises(AliasingError):
            wp.shift(gauss, 8.0)

    def test_wrap_past_edge_refused(self, grid):
        # within the |delta| guard, but the packet would land past p_max or p_min
        for mean, delta in ((9.0, 7.9), (-9.0, -7.9)):
            packet = wp.gaussian_init(GaussianParams(mean=mean), grid)
            with pytest.raises(AliasingError, match="grid edge"):
                wp.shift(packet, delta)
            back = wp.shift(packet, -delta)
            assert wp.mean_momentum(back) == pytest.approx(mean - delta, abs=1e-9)

    def test_composition(self, gauss):
        once = wp.shift(wp.shift(gauss, 0.3), 0.4)
        direct = wp.shift(gauss, 0.7)
        np.testing.assert_allclose(once.amplitudes, direct.amplitudes, atol=1e-9)

    def test_mean_additivity_random_gaussians(self, rng):
        grid = wp.default_grid()
        for _ in range(25):
            w = rng.uniform(0.5, 1.5)
            mu = rng.uniform(-2.0, 2.0)
            delta = rng.uniform(-2.0, 2.0)
            gauss = wp.gaussian_init(GaussianParams(width=w, mean=mu), grid)
            shifted = wp.shift(gauss, delta)
            assert wp.mean_momentum(shifted) == pytest.approx(
                wp.mean_momentum(gauss) + delta, abs=1e-9
            )


class TestSuperpose:
    """Linear combinations of two modes, as the beam-splitter mixers form them."""

    def test_identity(self, gauss):
        # a t = 1 pulse forms 1 * Phi - 0 * Phi in mode A
        out = spinor.microwave_pulse(TwoPathState(gauss, gauss), 1.0)
        np.testing.assert_allclose(out.path_a.amplitudes, gauss.amplitudes)

    def test_destructive(self, gauss):
        # a pi/2 pulse forms (Phi - Phi) / sqrt(2) in mode A
        out = spinor.microwave_pulse(TwoPathState(gauss, gauss), 1 / np.sqrt(2))
        assert wp.norm(out.path_a) == pytest.approx(0.0, abs=1e-15)

    def test_port_c_combination(self, gauss):
        # t/sqrt(2) Phi - r/sqrt(2) Phi(p - delta) at t=0.85, delta=0.2
        t, delta = 0.85, 0.2
        r = np.sqrt(1 - t * t)
        state = mzi.apply_kick(mzi.split(gauss, mzi.BeamSplitterCoeffs(t)), delta)
        out, _ = mzi.recombine(state)
        expected = (1 - 2 * t * r * np.exp(-delta * delta / 4)) / 2
        assert wp.norm(out) == pytest.approx(expected, abs=1e-10)
        assert abs(wp.norm(out) - 0.057) < 1e-3

    def test_grid_mismatch(self, gauss):
        other = wp.gaussian_init(GaussianParams(), GridSpec(2048, -16.0, 16.0))
        with pytest.raises(GridMismatchError):
            TwoPathState(gauss, other)

    @given(
        ar=st.floats(-2, 2), ai=st.floats(-2, 2),
        br=st.floats(-2, 2), bi=st.floats(-2, 2),
        delta=st.floats(-2, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallelogram_expansion(self, ar, ai, br, bi, delta):
        grid = wp.default_grid()
        wf1 = wp.gaussian_init(GaussianParams(), grid)
        wf2 = wp.shift(wf1, delta)
        a, b = complex(ar, ai), complex(br, bi)
        state = TwoPathState(MomentumWavefunction(grid, a * wf1.amplitudes),
                             MomentumWavefunction(grid, b * wf2.amplitudes))
        combined, _ = mzi.recombine(state)  # (a Phi1 + i b Phi2) / sqrt(2)
        expected = (
            abs(a) ** 2 * wp.norm(wf1)
            + abs(b) ** 2 * wp.norm(wf2)
            + 2 * (np.conj(a) * 1j * b * wp.overlap(wf1, wf2)).real
        ) / 2
        assert wp.norm(combined) == pytest.approx(expected, abs=1e-9)


class TestFourierPair:
    def test_round_trip(self, rng, grid):
        amp = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        wf = MomentumWavefunction(grid, amp)
        back = wp.to_momentum(wp.to_position(wf))
        np.testing.assert_allclose(back.amplitudes, wf.amplitudes, atol=1e-12)

    def test_position_state_refuses_nan(self, grid):
        amp = np.ones(grid.n_points, dtype=complex)
        amp[7] = np.nan
        with pytest.raises(ParameterError, match="non-finite amplitudes"):
            wp.PositionWavefunction(grid, amp)

    def test_parseval(self, gauss):
        psi = wp.to_position(gauss)
        assert wp.norm(psi) == pytest.approx(wp.norm(gauss), abs=1e-12)

    def test_gaussian_transforms_to_gaussian(self, grid):
        # analytic Fourier transform: width-W momentum Gaussian maps to a
        # position Gaussian with amplitude-width 1/W (|psi|^2 std 1/(W sqrt 2))
        for w in (1.0, 2.0):
            gauss = wp.gaussian_init(GaussianParams(width=w), grid)
            psi = wp.to_position(gauss)
            prob = np.abs(psi.amplitudes) ** 2 * grid.dz
            var = float(np.sum(grid.z ** 2 * prob) / prob.sum())
            assert var == pytest.approx(1.0 / (2 * w * w), rel=1e-8)
            expected_peak = np.pi ** -0.25 * np.sqrt(w)
            assert np.max(np.abs(psi.amplitudes)) == pytest.approx(expected_peak, rel=1e-10)
