"""Two-path pipeline: beam splitters, kicks, post-selection, conservation."""

import re
import warnings

import numpy as np
import pytest

from qif import circuitfile, interferometer as mzi
from qif import wavepacket as wp
from qif.errors import ParameterError, QifError
from qif.interferometer import BeamSplitterCoeffs
from qif.wavepacket import GaussianParams, MomentumWavefunction


def _norm(grid, amp):
    return float(np.sum(np.abs(amp) ** 2) * grid.dp)


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
        assert _norm(state.grid, state.path_b) == 0.0
        np.testing.assert_array_equal(state.path_a, gauss.amplitudes)

    def test_full_reflection(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.0))
        assert _norm(state.grid, state.path_a) == 0.0
        np.testing.assert_allclose(state.path_b, 1j * gauss.amplitudes)

    def test_balanced(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(1 / np.sqrt(2)))
        assert _norm(state.grid, state.path_a) == pytest.approx(0.5, abs=1e-10)
        assert _norm(state.grid, state.path_b) == pytest.approx(0.5, abs=1e-10)


class TestApplyKick:
    def test_noop(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        kicked = mzi.apply_kick(state, 0.0)
        np.testing.assert_array_equal(kicked.path_b, state.path_b)

    def test_kick_moves_arm_b_only(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        kicked = mzi.apply_kick(state, 0.2)
        np.testing.assert_array_equal(kicked.path_a, state.path_a)
        assert wp.first_moment(state.grid, kicked.path_b) == pytest.approx(0.2, abs=1e-9)
        assert _norm(state.grid, kicked.path_b) == pytest.approx(1 - 0.85 ** 2, abs=1e-10)

    def test_pi_phase_negates(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        plain = mzi.apply_kick(state, 0.2)
        flipped = mzi.apply_kick(state, 0.2, alpha=np.pi)
        np.testing.assert_allclose(flipped.path_b, -plain.path_b, atol=1e-12)

    def test_alpha_is_beta_plus_gamma(self, gauss):
        # propagation phase beta then kick phase gamma act as one alpha
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        twice = mzi.phase(mzi.phase(state, "B", 0.3), "B", 0.4)
        once = mzi.phase(state, "B", 0.7)
        np.testing.assert_allclose(twice.path_b, once.path_b, atol=1e-12)
        np.testing.assert_array_equal(twice.path_a, state.path_a)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_non_finite_phase_refused_without_a_warning(self, gauss, alpha):
        state = mzi.split(gauss, BeamSplitterCoeffs(0.85))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="phase alpha must be finite"):
                mzi.phase(state, "B", alpha)


class TestRecombine:
    def test_dark_port(self, gauss):
        state = mzi.split(gauss, BeamSplitterCoeffs(1 / np.sqrt(2)))
        raw_c, _ = mzi.recombine(mzi.apply_kick(state, 0.0))
        assert _norm(state.grid, raw_c) == pytest.approx(0.0, abs=1e-15)

    def test_port_probability(self, gauss):
        state = mzi.apply_kick(
            mzi.split(gauss, BeamSplitterCoeffs(0.85)), 0.2
        )
        raw_c, raw_d = mzi.recombine(state)
        p_c, p_d = _norm(state.grid, raw_c), _norm(state.grid, raw_d)
        assert p_c == pytest.approx(0.05669005452584719, abs=1e-9)
        assert abs(p_c - 0.057) < 1e-3
        assert p_c + p_d == pytest.approx(1.0, abs=1e-9)

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
        np.testing.assert_allclose(raw_c, expect_c, atol=1e-12)
        np.testing.assert_allclose(raw_d, expect_d, atol=1e-12)


class TestPortStats:
    def test_anomalous_mean(self, gauss):
        out_c, out_d = mzi.run_mzi(gauss, 0.85, 0.2)
        assert out_c.mean_p == pytest.approx(-0.2924850696669441, abs=1e-9)
        assert -0.31 < out_c.mean_p < -0.27
        assert out_d.mean_p > 0

    def test_dark_port_flag(self, grid):
        out = mzi.port_stats(grid, np.zeros(grid.n_points, dtype=complex), "C")
        assert out.probability == 0.0
        assert out.is_dark
        assert np.isnan(out.mean_p)

    def test_normalized_wavefunction(self, gauss):
        out_c, _ = mzi.run_mzi(gauss, 0.85, 0.2)
        assert wp.norm(out_c.wavefunction) == pytest.approx(1.0, abs=1e-10)

    def test_rounds_like_the_written_formulas(self, gauss):
        """P = norm(raw), Phi / sqrt(P), and <p> = mean_momentum of it, bit for bit."""
        raw_c, _ = mzi.recombine(mzi.apply_kick(mzi.split(gauss, BeamSplitterCoeffs(0.85)),
                                                0.2, 0.4))
        grid = gauss.grid
        prob = wp.norm(MomentumWavefunction(grid, raw_c))
        normalized = MomentumWavefunction(grid, raw_c / np.sqrt(prob))
        mean = float(np.sum(grid.p * np.abs(normalized.amplitudes) ** 2)
                     * grid.dp / wp.norm(normalized))
        out = mzi.port_stats(grid, raw_c, "C")
        assert (out.probability, out.mean_p) == (prob, mean)
        assert out.wavefunction.amplitudes.tobytes() == normalized.amplitudes.tobytes()
        assert wp.mean_momentum(normalized) == mean


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

    def test_check_refuses_nan_residual(self):
        # every comparison with nan is false: the checks must fail closed
        with pytest.raises(QifError, match=r"unitarity violated at t=0.6, delta=1.0"):
            mzi.check_ports(np.nan, 0.2, 0.5, 0.2, 0.6, 1.0)
        with pytest.raises(QifError, match=r"conservation violated at t=0.6, delta=1.0"):
            mzi.check_ports(0.5, 0.32, 0.5, 0.32, 0.6, 1.0, mean_in=np.nan)
        with pytest.raises(QifError, match=r"conservation violated at t=0.6, delta=nan"):
            mzi.check_ports(0.5, 0.32, 0.5, 0.32, 0.6, np.nan)

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


def _divide_cases(rng):
    """Complex arrays with random parts, zeros of either sign, subnormals and huge parts."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 3e-310, -2.2250738585072014e-308,
                        1e300, -1.5e307, 1.5, -0.75])
    re, im = np.meshgrid(special, special)
    random = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    return {"random": random,
            "subnormal_and_huge": random * 10.0 ** rng.choice([-310, -300, 300, 306], 4096),
            "signed_zeros_and_specials": (re + 1j * im).ravel(),
            "zero_real_parts": -0.0 + 1j * random.imag,
            "zero_imaginary_parts": random.real - 0j}


class TestDivide:
    """mzi._divide against numpy's complex / real, byte for byte."""

    @pytest.mark.parametrize("s", [np.sqrt(2.0), np.sqrt(0.2927)], ids=["sqrt2", "sqrt_p"])
    def test_divide_is_division_bit_for_bit(self, rng, s):
        for name, z in _divide_cases(rng).items():
            assert mzi._divide(z, s).tobytes() == (z / s).tobytes(), name

    def test_multiply_takes_over_where_no_part_is_zero(self, rng):
        z = _divide_cases(rng)["subnormal_and_huge"]
        assert (z * (1 / np.sqrt(2.0))).view(np.float64).all()

    @pytest.mark.parametrize("rows", [None, 6], ids=["one_row", "stack_with_column_s"])
    def test_planted_zero_parts_divide_bit_for_bit(self, rng, rows):
        """Elements with a zero part, of either sign or underflowed, take numpy's division
        alone; the rest of the stack keeps the multiply."""
        shape = (4096,) if rows is None else (rows, 4096)
        for _ in range(50):
            s = np.sqrt(2.0) if rows is None else 10.0 ** rng.uniform(-3, 3, (rows, 1))
            parts = rng.standard_normal((*shape, 2)) * 10.0 ** rng.uniform(-322, 300, (*shape, 2))
            planted = rng.random(parts.shape) < 1e-3
            parts[planted] = rng.choice([0.0, -0.0], planted.sum())
            z = parts.view(complex)[..., 0]
            assert planted.any() and z.shape == shape
            expected = (z / s).tobytes()
            assert mzi._divide(z, s).tobytes() == expected
            assert mzi._divide(z, s, np.empty_like(z)).tobytes() == expected

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_zero_tails_match_plain_division(self, monkeypatch, t):
        """A narrow source underflows to exact zeros; the ports keep the signs of / ."""
        grid = wp.default_grid()
        narrow = wp.gaussian_init(GaussianParams(width=0.05), grid)
        assert np.any(narrow.amplitudes == 0)
        text = (f"source width=0.05 mean=0\nbs t={t}\nkick path=B delta=0.2\n"
                "recombine\nselect port=C\nreport moments\nreport wavefunction\n")

        def run():
            ports = mzi.run_mzi(narrow, t, 0.2, 0.3)
            stats = mzi.stats_grid(narrow, np.array([t, t]), np.array([0.2, 1.1]))
            report = circuitfile.execute(circuitfile.parse(text), grid).report
            return ([o.wavefunction.amplitudes.tobytes() for o in ports]
                    + [np.array(stats).tobytes(), report])

        fast = run()
        monkeypatch.setattr(mzi, "_divide", lambda z, s, out=None: np.divide(z, s, out=out))
        assert fast == run()
