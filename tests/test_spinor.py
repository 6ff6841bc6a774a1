"""Internal-state protocol and its equivalence to the spatial pipeline."""

import numpy as np
import pytest

from qif import interferometer as mzi
from qif import spinor, wavepacket as wp
from qif.errors import ParameterError
from qif.interferometer import TwoPathState
from qif.wavepacket import GaussianParams


@pytest.fixture(scope="module")
def pure_a():
    # all atoms in |A> with a Gaussian momentum wavefunction
    grid = wp.default_grid()
    empty = np.zeros(grid.n_points, dtype=complex)
    return TwoPathState(grid, wp.gaussian_init(GaussianParams(), grid).amplitudes, empty)


def _raw(outcome):
    return outcome.wavefunction.amplitudes * np.sqrt(outcome.probability)


class TestMicrowavePulse:
    def test_identity_pulse(self, pure_a):
        out = spinor.microwave_pulse(pure_a, 1.0)
        np.testing.assert_array_equal(out.path_a, pure_a.path_a)
        np.testing.assert_array_equal(out.path_b, pure_a.path_b)

    def test_pi_half_pulse_on_pure_a(self, pure_a):
        out = spinor.microwave_pulse(pure_a, 1 / np.sqrt(2))
        np.testing.assert_allclose(out.path_a, pure_a.path_a / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(out.path_b, pure_a.path_a / np.sqrt(2), atol=1e-12)

    def test_pi_half_pulse_on_pure_b(self, pure_a):
        grid = pure_a.grid
        pure_b = TwoPathState(grid, np.zeros(grid.n_points, complex), pure_a.path_a)
        out = spinor.microwave_pulse(pure_b, 1 / np.sqrt(2))
        np.testing.assert_allclose(out.path_a, -pure_a.path_a / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(out.path_b, pure_a.path_a / np.sqrt(2), atol=1e-12)

    def test_composition_is_rotation(self, pure_a):
        # two rotations compose: coefficient t t' - r r' (2x2 matrix product)
        t1, t2 = 0.8, 0.6
        r1, r2 = np.sqrt(1 - t1 ** 2), np.sqrt(1 - t2 ** 2)
        composed = spinor.microwave_pulse(spinor.microwave_pulse(pure_a, t1), t2)
        expected_t = t1 * t2 - r1 * r2
        expected_r = r1 * t2 + t1 * r2
        np.testing.assert_allclose(composed.path_a, expected_t * pure_a.path_a, atol=1e-12)
        np.testing.assert_allclose(composed.path_b, expected_r * pure_a.path_a, atol=1e-12)

    def test_unitarity(self, pure_a, rng):
        state = pure_a
        for _ in range(5):
            state = spinor.microwave_pulse(state, rng.uniform(0, 1))
        total = np.sum(np.abs(state.path_a) ** 2 + np.abs(state.path_b) ** 2) * state.grid.dp
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_range_check(self, pure_a):
        with pytest.raises(ValueError):
            spinor.microwave_pulse(pure_a, 1.5)


class TestSternGerlach:
    def test_zero_kick_identity(self, pure_a):
        out = spinor.stern_gerlach(pure_a, 0.0, 0.0)
        np.testing.assert_array_equal(out.path_a, pure_a.path_a)

    def test_kick_moves_component(self, pure_a):
        out = spinor.stern_gerlach(pure_a, 0.3, 0.0)
        assert wp.first_moment(out.grid, out.path_a) == pytest.approx(0.3, abs=1e-9)

    def test_intermediate_state_matches_protocol(self, pure_a):
        # after pulse(t) and kick: t Phi(p - da) |A> + r Phi(p - db) |B>
        t, da, db = 0.85, 0.1, 0.3
        r = np.sqrt(1 - t * t)
        state = spinor.stern_gerlach(spinor.microwave_pulse(pure_a, t), da, db)
        grid, gauss = pure_a.grid, pure_a.path_a
        np.testing.assert_allclose(
            state.path_a, t * wp.shift(grid, gauss, da), atol=1e-12
        )
        np.testing.assert_allclose(
            state.path_b, r * wp.shift(grid, gauss, db), atol=1e-12
        )


class TestSelect:
    def test_pure_state_selection(self, pure_a):
        assert mzi.select(pure_a, "A").probability == pytest.approx(1.0, abs=1e-10)
        out_b = mzi.select(pure_a, "B")
        assert out_b.probability == 0.0
        assert out_b.is_dark

    def test_bad_label(self, pure_a):
        with pytest.raises(ValueError):
            mzi.select(pure_a, "C")


class TestRunProtocol:
    def test_reference_point(self, gauss):
        out = spinor.run_protocol(gauss, 0.85, 0.1, 0.3)
        assert out.probability == pytest.approx(0.05669005452584719, abs=1e-9)
        assert out.mean_p == pytest.approx(-0.2924850696669441, abs=1e-9)

    def test_no_relative_kick(self, gauss):
        out = spinor.run_protocol(gauss, 0.85, 0.25, 0.25)
        assert out.mean_p == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("source", [GaussianParams(), GaussianParams(1.3, 0.4)],
                             ids=["unit", "wide_off_centre"])
    def test_nodewise_equivalence_to_port_c(self, grid, source, rng):
        gauss = wp.gaussian_init(source, grid)
        for _ in range(20):
            t = rng.uniform(0.1, 0.95)
            da = rng.uniform(-1.0, 1.0)
            db = rng.uniform(-1.0, 1.0)
            out = spinor.run_protocol(gauss, t, da, db)
            mzi_c, _ = mzi.run_mzi(gauss, t, db - da)
            np.testing.assert_allclose(_raw(out), _raw(mzi_c), atol=1e-10)

    def test_depends_on_difference_only(self, gauss, rng):
        for _ in range(10):
            diff = rng.uniform(-1.0, 1.0)
            base = rng.uniform(-0.5, 0.5)
            other = rng.uniform(-0.5, 0.5)
            out1 = spinor.run_protocol(gauss, 0.8, base, base + diff)
            out2 = spinor.run_protocol(gauss, 0.8, other, other + diff)
            np.testing.assert_allclose(_raw(out1), _raw(out2), atol=1e-10)

    def test_select_b_is_translated_port_d(self, gauss):
        # selecting B gives the port-D wavefunction rigidly shifted by
        # -(db - da): equal probability, mean displaced by the kick
        t, da, db = 0.85, 0.1, 0.3
        delta = db - da
        out_b = spinor.run_protocol(gauss, t, da, db, select="B")
        _, mzi_d = mzi.run_mzi(gauss, t, delta)
        assert out_b.probability == pytest.approx(mzi_d.probability, abs=1e-10)
        assert out_b.mean_p == pytest.approx(mzi_d.mean_p - delta, abs=1e-9)
        port_d = mzi_d.wavefunction
        shifted_d = wp.shift(port_d.grid, port_d.amplitudes, -delta)
        np.testing.assert_allclose(
            out_b.wavefunction.amplitudes, shifted_d, atol=1e-10
        )

    @pytest.mark.parametrize("kick", [0.3, 0.005, -1.0])
    def test_dark_mode_is_kicked_not_refused(self, gauss, kick):
        # balanced pulses and equal kicks: A is dark, and the wrap of its
        # rounding noise is no refusal
        out = spinor.run_protocol(gauss, 0.7071067811865476, kick, kick)
        assert out.is_dark
        assert out.probability < wp.DARK_THRESHOLD

    def test_protocol_unitary_before_selection(self, gauss):
        out_a = spinor.run_protocol(gauss, 0.7, 0.2, 0.5, select="A")
        out_b = spinor.run_protocol(gauss, 0.7, 0.2, 0.5, select="B")
        assert out_a.probability + out_b.probability == pytest.approx(1.0, abs=1e-10)

    def test_only_the_selected_state_is_kicked_back(self, gauss):
        # at t = 0.1, A's inverse kick of +5.52 would wrap 1.1e-12 of its norm; selecting B
        # never kicks A back, so the run gives port D's statistics translated by -delta
        t, da, db = 0.1, -5.52, 5.52
        delta = db - da
        out = spinor.run_protocol(gauss, t, da, db, select="B")
        assert out.probability == pytest.approx(0.5, abs=1e-9)
        assert out.mean_p == pytest.approx(delta * (1 - t * t) - delta, abs=1e-9)

    def test_unknown_select_is_refused_before_any_kick(self, gauss):
        # a nan kick would be refused by the first kick: the label is refused first
        with pytest.raises(ParameterError, match="mode must be A or B, got 'C'"):
            spinor.run_protocol(gauss, 0.85, float("nan"), 0.3, select="C")
