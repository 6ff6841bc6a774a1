"""Closed-form Gaussian statistics, validated against independent quadrature."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from qif import analytic, interferometer as mzi, wavepacket as wp
from qif.errors import ParameterError


def _phi(p):
    return np.pi ** -0.25 * np.exp(-p * p / 2)


def _quadrature_stats(t, delta, alpha):
    """Brute-force oracle: direct quadrature of |Phi_C|^2 and |Phi_D|^2."""
    r = np.sqrt(1 - t * t)
    e = np.exp(1j * alpha)

    def density(sign):
        return lambda p: abs(t / np.sqrt(2) * _phi(p)
                             + sign * r * e / np.sqrt(2) * _phi(p - delta)) ** 2

    p_c, _ = quad(density(-1), -30, 30)
    p_d, _ = quad(density(+1), -30, 30)
    m_c = quad(lambda p: p * density(-1)(p), -30, 30)[0] / p_c
    m_d = quad(lambda p: p * density(+1)(p), -30, 30)[0] / p_d
    return p_c, m_c, p_d, m_d


#: The cell of the 200 x 200 alpha = 0 sweep (acceptance criterion 3) with
#: the largest P_C among cells whose port-C mean is <= -0.3 W.
SWEEP_PEAK_CELL = (float(np.linspace(0.01, 0.99, 200)[186]), 0.89, 0.0)


class TestGaussianOverlap:
    def test_zero_displacement(self):
        assert analytic.gaussian_overlap(0.0) == 1.0

    def test_against_quadrature(self):
        for delta in (0.3, 1.0, 2.0):
            expected, _ = quad(lambda p: _phi(p) * _phi(p - delta), -30, 30)
            assert analytic.gaussian_overlap(delta) == pytest.approx(expected, abs=1e-12)

    def test_unit_displacement_value(self):
        assert analytic.gaussian_overlap(1.0) == pytest.approx(0.7788007830714049, abs=1e-12)

    def test_vanishes_at_infinity(self):
        assert analytic.gaussian_overlap(50.0) < 1e-200

    def test_overflowing_square_gives_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = analytic.closed_form_stats(0.6, 1e200)
        assert s.p_c == s.p_d == 0.5


class TestClosedFormStats:
    def test_reference_point(self):
        s = analytic.closed_form_stats(0.85, 0.2, 0.0)
        assert s.p_c == pytest.approx(0.05669005452584719, abs=1e-12)
        assert s.mean_c == pytest.approx(-0.2924850696669441, abs=1e-12)
        assert abs(s.p_c - 0.057) < 1e-3 and abs(s.mean_c + 0.29) < 5e-3

    @pytest.mark.parametrize("t,delta,alpha", [
        (0.85, 0.2, 0.0),
        (0.5, 1.0, 0.7),
        (0.95, 0.4, 2.5),
        (0.3, 1.7, 4.0),
        pytest.param(*SWEEP_PEAK_CELL, id="sweep_peak_cell"),
    ])
    def test_every_coefficient_against_quadrature(self, t, delta, alpha):
        p_c, m_c, p_d, m_d = _quadrature_stats(t, delta, alpha)
        s = analytic.closed_form_stats(t, delta, alpha)
        assert s.p_c == pytest.approx(p_c, abs=1e-10)
        assert s.p_d == pytest.approx(p_d, abs=1e-10)
        assert s.mean_c == pytest.approx(m_c, abs=1e-10)
        assert s.mean_d == pytest.approx(m_d, abs=1e-10)

    def test_sweep_peak_cell_quadrature(self):
        # a strongly anomalous cell selected far more often than 10%
        p_c, m_c, _, _ = _quadrature_stats(*SWEEP_PEAK_CELL)
        assert m_c <= -0.3
        assert p_c > 0.2

    def test_transmission_out_of_range_refused(self):
        for t in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError, match="transmission"):
                analytic.closed_form_stats(t, 0.2)

    @pytest.mark.parametrize("delta, alpha, refused", [
        (np.nan, 0.0, "kick delta must be finite, got nan"),
        (-np.inf, 0.0, "kick delta must be finite, got -inf"),
        (0.1, np.inf, "phase alpha must be finite, got inf"),
        (0.1, np.nan, "phase alpha must be finite, got nan"),
    ])
    def test_non_finite_kick_or_phase_refused_without_a_warning(self, delta, alpha, refused):
        # the surface returns nan or warns here; its scalar view refuses, as the grid does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=refused):
                analytic.closed_form_stats(0.5, delta, alpha)

    def test_balanced_dark_port(self):
        s = analytic.closed_form_stats(1 / np.sqrt(2), 0.0, 0.0)
        assert s.p_c == pytest.approx(0.0, abs=1e-15)
        assert np.isnan(s.mean_c)

    def test_quarter_phase_kills_interference(self):
        # cos(alpha) = 0: both ports equally likely, both means r^2 delta
        for t, delta in ((0.6, 0.5), (0.85, 1.2)):
            s = analytic.closed_form_stats(t, delta, np.pi / 2)
            r_sq = 1 - t * t
            assert s.p_c == pytest.approx(0.5, abs=1e-12)
            assert s.p_d == pytest.approx(0.5, abs=1e-12)
            assert s.mean_c == pytest.approx(r_sq * delta, abs=1e-12)
            assert s.mean_d == pytest.approx(r_sq * delta, abs=1e-12)

    def test_conservation_exact(self, rng):
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            delta = rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            s = analytic.closed_form_stats(t, delta, alpha)
            total = s.p_c * np.nan_to_num(s.mean_c) + s.p_d * np.nan_to_num(s.mean_d)
            assert abs(total - (1 - t * t) * delta) <= 1e-12

    def test_port_swap_symmetry(self, rng):
        for _ in range(50):
            t = rng.uniform(0.05, 0.95)
            delta = rng.uniform(0.05, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            s = analytic.closed_form_stats(t, delta, alpha)
            sw = analytic.closed_form_stats(t, delta, alpha + np.pi)
            assert sw.p_c == pytest.approx(s.p_d, abs=1e-14)
            assert sw.mean_c == pytest.approx(s.mean_d, abs=1e-12)

    def test_weak_overlap_limit(self):
        # delta = 4W: cross term carries K = e^-4
        t, delta = 0.7, 4.0
        r = np.sqrt(1 - t * t)
        s = analytic.closed_form_stats(t, delta, 0.0)
        assert s.p_c == pytest.approx((1 - 2 * t * r * np.exp(-4.0)) / 2, abs=1e-14)


class TestOracleGridAgreement:
    def test_thousand_random_triples(self, gauss, rng):
        worst = 0.0
        for _ in range(1000):
            t = rng.uniform(0.05, 0.95)
            delta = rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            s = analytic.closed_form_stats(t, delta, alpha)
            out_c, out_d = mzi.run_mzi(gauss, t, delta, alpha)
            worst = max(
                worst,
                abs(s.p_c - out_c.probability),
                abs(s.p_d - out_d.probability),
                abs(s.mean_c - out_c.mean_p),
                abs(s.mean_d - out_d.mean_p),
            )
        assert worst <= 1e-6


class TestFindMinMeanC:
    """The most negative <p>_C on a surface, as `qif sweep` finds it."""

    def test_fig2_domain(self, sweep_minimum):
        t_star, d_star, value = sweep_minimum((0.01, 0.99, 200), (0.01, 2.0, 200))
        assert value <= -0.65
        # minimum approached at small delta, t slightly above 1/sqrt(2)
        assert d_star <= 0.05
        assert 1 / np.sqrt(2) < t_star < 0.75

    def test_weak_overlap_domain(self, sweep_minimum):
        # needs delta >= 8W where the overlap is < 1e-7
        _, _, value = sweep_minimum((0.01, 0.99, 100), (8.0, 12.0, 100))
        assert value >= -1e-6


class TestStatsGrid:
    def test_matches_scalar_forms(self, rng):
        ts = rng.uniform(0.05, 0.95, size=8)
        ds = rng.uniform(0.0, 2.0, size=8)
        p_c, m_c, p_d, m_d = analytic.stats_grid(ts, ds, alpha=0.4)
        for i in range(8):
            s = analytic.closed_form_stats(ts[i], ds[i], 0.4)
            # one record, one field order: (p_c, mean_c, p_d, mean_d)
            assert tuple(s) == tuple(map(float, analytic.stats_grid(ts[i], ds[i], 0.4)))
            assert p_c[i] == pytest.approx(s.p_c, abs=1e-14)
            assert m_c[i] == pytest.approx(s.mean_c, abs=1e-12)
            assert p_d[i] == pytest.approx(s.p_d, abs=1e-14)
            assert m_d[i] == pytest.approx(s.mean_d, abs=1e-12)

    def test_a_port_at_the_dark_threshold_has_a_mean_on_both_sides(self, monkeypatch):
        """One dark rule: a port is dark below DARK_THRESHOLD, for the oracle as for the grid."""
        p_c = float(analytic.stats_grid(0.7, 0.3).p_c)
        monkeypatch.setattr(analytic, "DARK_THRESHOLD", p_c)
        assert not np.isnan(analytic.stats_grid(0.7, 0.3).mean_c)
        monkeypatch.setattr(analytic, "DARK_THRESHOLD", float(np.nextafter(p_c, 1.0)))
        assert np.isnan(analytic.stats_grid(0.7, 0.3).mean_c)
        grid = wp.default_grid()
        raw, _ = mzi.recombine(mzi.apply_kick(mzi.split(
            wp.gaussian_init(wp.GaussianParams(), grid), mzi.BeamSplitterCoeffs(0.7)), 0.3))
        monkeypatch.setattr(mzi, "DARK_THRESHOLD", float(mzi.port_moments(grid, raw)[0]))
        assert not np.isnan(mzi.port_moments(grid, raw)[1])


def _weak_value(t):
    """<f|Pi_B|psi> / <f|psi> for psi = (t, i r) and port C's f = (1, -i)/sqrt(2)."""
    r = np.sqrt(1.0 - t * t)
    psi, f = np.array([t, 1j * r]), np.array([1.0, -1j]) / np.sqrt(2.0)
    w = np.vdot(f, np.diag([0.0, 1.0]) @ psi) / np.vdot(f, psi)
    assert w.imag == 0.0
    return w.real


class TestWeakValue:
    """As delta -> 0, <p>_C / delta tends to the weak value of arm B's projector,
    r / (r - t) (Aharonov, Albert & Vaidman, PRL 60, 1351 (1988))."""

    @pytest.mark.parametrize("t", [0.6, 0.75, 0.85, 0.95])
    def test_port_c_mean_tends_to_it_at_second_order(self, gauss, t):
        w = _weak_value(t)
        assert w == pytest.approx(np.sqrt(1 - t * t) / (np.sqrt(1 - t * t) - t), rel=1e-14)
        errors = []
        for delta in (1e-2, 1e-3):
            oracle = analytic.stats_grid(t, delta).mean_c
            grid = mzi.run_mzi(gauss, t, delta)[0].mean_p
            errors.append([abs(oracle / delta - w), abs(grid / delta - w)])
        coarse, fine = np.array(errors)
        np.testing.assert_allclose(fine / coarse, 0.0100, atol=0.0005)

    def test_negative_exactly_when_t_exceeds_r(self):
        assert _weak_value(0.85) == pytest.approx(-1.6298096281, abs=1e-10)
        assert _weak_value(0.6) == pytest.approx(4.0, rel=1e-14)
        for t in np.linspace(0.02, 0.98, 49):
            assert (_weak_value(t) < 0) == (t > np.sqrt(1 - t * t)), t
