"""Momentum-space representation: moments, shifts, Fourier pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qif import interferometer as mzi
from qif import spinor, splitstep, wavepacket as wp
from qif.errors import AliasingError, GridTooNarrowError, ParameterError, ZeroNormError
from qif.interferometer import TwoPathState
from qif.wavepacket import GaussianParams, GridSpec, MomentumWavefunction


def _norm(grid, amp):
    return float(np.sum(np.abs(amp) ** 2) * grid.dp)


def _variance(wf):
    """Second central moment of |Phi(p)|^2."""
    prob = np.abs(wf.amplitudes) ** 2
    mean = wp.mean_momentum(wf)
    return float(np.sum((wf.grid.p - mean) ** 2 * prob) * wf.grid.dp / wp.norm(wf))


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


CACHED_ARRAYS = ("p", "z", "_signs", "_p_ramp", "_z_factor")


class TestDefaultGrid:
    def test_shared_grid_is_read_only_and_rebuilt_exactly(self):
        """One grid per process is safe only if no caller can change what the next one reads."""
        grid = wp.default_grid(1024)
        assert wp.default_grid(1024) is wp.default_grid(n_points=1024) is grid
        for array in [getattr(grid, name) for name in CACHED_ARRAYS] + [grid.kick_ramp(0.3)]:
            with pytest.raises(ValueError):
                array[0] = 1.0
        wp.default_grid(256)  # evicts the last grid: only one is kept
        rebuilt, fresh = wp.default_grid(), GridSpec(4096, -16.0, 16.0)
        assert wp.default_grid(4096) is wp.default_grid(n_points=4096) is rebuilt
        for name in CACHED_ARRAYS:
            assert getattr(rebuilt, name).tobytes() == getattr(fresh, name).tobytes(), name
        with pytest.raises(TypeError):  # an untyped cache would find the 4096 grid under 4096.0
            wp.default_grid(n_points=4096.0)


    def test_kicks_and_surfaces_leave_the_shared_grid_unwritten(self):
        """A shared grid is never written after its cached factors: the last kick ramp is not
        kept on it."""
        grid = wp.default_grid()
        gauss = wp.gaussian_init(GaussianParams(), grid)
        before = wp.to_position(gauss)
        wp.to_momentum(before)
        cached = dict(grid.__dict__)
        assert set(CACHED_ARRAYS) <= set(cached)
        for delta in (0.3, -0.3, 0.0, -0.0, 1.1):
            wp.shift_amplitudes(grid, gauss.amplitudes, delta)
        mzi.stats_grid(gauss, [0.6, 0.8], [0.4, -0.0], 0.2)
        after = wp.to_position(wp.shift(gauss, 0.5))
        splitstep.kick_fidelity(before, after, 0.5)
        assert grid.__dict__.keys() == cached.keys()
        assert all(grid.__dict__[name] is value for name, value in cached.items())


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


class TestShift:
    def test_zero_shift_identity(self, gauss):
        shifted = wp.shift(gauss, 0.0)
        np.testing.assert_array_equal(shifted.amplitudes, gauss.amplitudes)

    def test_mean_and_variance(self, gauss):
        shifted = wp.shift(gauss, 0.2)
        assert wp.mean_momentum(shifted) == pytest.approx(0.2, abs=1e-9)
        assert _variance(shifted) == pytest.approx(0.5, abs=1e-9)

    def test_overlap_against_quadrature(self, gauss):
        # independent oracle: numeric quadrature of the Gaussian product
        phi = lambda p: np.pi ** -0.25 * np.exp(-p * p / 2)
        expected, _ = quad(lambda p: phi(p) * phi(p - 1.0), -20, 20)
        shifted = wp.shift(gauss, 1.0)
        # <Phi|shift(Phi)> as a Riemann sum
        measured = (np.sum(np.conj(gauss.amplitudes) * shifted.amplitudes) * gauss.grid.dp).real
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

    def test_dark_state_wrap_not_refused(self, grid):
        # the wrap of a bright packet is refused; at a norm below DARK_THRESHOLD
        # the amplitudes are noise, and the same shift goes through
        packet = wp.gaussian_init(GaussianParams(mean=9.0), grid).amplitudes
        with pytest.raises(AliasingError, match="grid edge"):
            wp.shift_amplitudes(grid, 4e-8 * packet, 7.9)  # norm 1.6e-15
        assert _norm(grid, wp.shift_amplitudes(grid, 3e-8 * packet, 7.9)) < wp.DARK_THRESHOLD

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
        out = spinor.microwave_pulse(TwoPathState(gauss.grid, gauss.amplitudes, gauss.amplitudes),
                                     1.0)
        np.testing.assert_allclose(out.path_a, gauss.amplitudes)

    def test_destructive(self, gauss):
        # a pi/2 pulse forms (Phi - Phi) / sqrt(2) in mode A
        out = spinor.microwave_pulse(TwoPathState(gauss.grid, gauss.amplitudes, gauss.amplitudes),
                                     1 / np.sqrt(2))
        assert _norm(out.grid, out.path_a) == pytest.approx(0.0, abs=1e-15)

    def test_port_c_combination(self, gauss):
        # t/sqrt(2) Phi - r/sqrt(2) Phi(p - delta) at t=0.85, delta=0.2
        t, delta = 0.85, 0.2
        r = np.sqrt(1 - t * t)
        state = mzi.apply_kick(mzi.split(gauss, mzi.BeamSplitterCoeffs(t)), delta)
        out, _ = mzi.recombine(state)
        expected = (1 - 2 * t * r * np.exp(-delta * delta / 4)) / 2
        assert _norm(gauss.grid, out) == pytest.approx(expected, abs=1e-10)
        assert abs(_norm(gauss.grid, out) - 0.057) < 1e-3

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
        state = TwoPathState(grid, a * wf1.amplitudes, b * wf2.amplitudes)
        combined, _ = mzi.recombine(state)  # (a Phi1 + i b Phi2) / sqrt(2)
        overlap = complex(np.sum(np.conj(wf1.amplitudes) * wf2.amplitudes) * grid.dp)
        expected = (
            abs(a) ** 2 * wp.norm(wf1)
            + abs(b) ** 2 * wp.norm(wf2)
            + 2 * (np.conj(a) * 1j * b * overlap).real
        ) / 2
        assert _norm(grid, combined) == pytest.approx(expected, abs=1e-9)


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

    @pytest.mark.parametrize("shape", [(4095,), (4097,), (2, 4096), ()])
    def test_amplitudes_must_match_the_grid(self, grid, shape):
        for kind in (MomentumWavefunction, wp.PositionWavefunction):
            with pytest.raises(ParameterError, match="amplitude array does not match grid"):
                kind(grid, np.ones(shape, dtype=complex))

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
