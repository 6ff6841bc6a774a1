"""SI-unit electron-scenario estimates."""

import pytest

from qif import analytic, feasibility
from qif.feasibility import ElectronScenario, RelativisticRegimeError, electron_report


class TestElectronReport:
    def test_reference_scenario_ratio(self):
        report = electron_report(ElectronScenario())
        assert 0.08 <= report.ratio <= 0.12

    def test_reference_scenario_beam_width(self):
        # convention-dependent; tolerance band around the nominal 1.7 um
        report = electron_report(ElectronScenario())
        assert 1.5e-6 <= report.beam_width_at_drift <= 2.0e-6

    def test_zero_voltage(self):
        report = electron_report(ElectronScenario(voltage_v=0.0))
        assert report.kick == 0.0
        assert report.ratio == 0.0

    def test_relativistic_energy_rejected(self):
        with pytest.raises(RelativisticRegimeError):
            electron_report(ElectronScenario(kinetic_energy_ev=100e3))

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(ValueError):
            ElectronScenario(slit_width_m=0.0)
        with pytest.raises(ValueError):
            ElectronScenario(drift_distance_m=-1.0)

    def test_kick_scaling(self):
        base = electron_report(ElectronScenario())
        doubled_v = electron_report(ElectronScenario(voltage_v=0.4e-3))
        doubled_l = electron_report(ElectronScenario(plate_length_m=2e-2))
        doubled_d = electron_report(ElectronScenario(plate_separation_m=2e-3))
        assert doubled_v.ratio == pytest.approx(2 * base.ratio, rel=1e-12)
        assert doubled_l.ratio == pytest.approx(2 * base.ratio, rel=1e-12)
        assert doubled_d.ratio == pytest.approx(base.ratio / 2, rel=1e-12)

    def test_unit_round_trip_stable(self):
        # eV -> J -> eV round trip must not perturb anything
        e_ev = 6e3
        e_back = (e_ev * feasibility.EV) / feasibility.EV
        a = electron_report(ElectronScenario(kinetic_energy_ev=e_ev))
        b = electron_report(ElectronScenario(kinetic_energy_ev=e_back))
        assert a == b

    def test_ratio_consistency(self):
        report = electron_report(ElectronScenario())
        assert report.ratio == report.kick / report.momentum_width

    def test_path_separation_context(self):
        assert feasibility.PATH_SEPARATION_M == pytest.approx(55e-6)


class TestRatioToMzi:
    def test_predicts_anomaly_at_reference(self):
        report = electron_report(ElectronScenario())
        stats = analytic.closed_form_stats(0.73, report.ratio)
        assert stats.mean_c < 0

    def test_zero_ratio_no_anomaly(self):
        report = electron_report(ElectronScenario(voltage_v=0.0))
        for t in (0.3, 0.73, 0.9):
            stats = analytic.closed_form_stats(t, report.ratio)
            assert stats.mean_c == pytest.approx(0.0, abs=1e-15)

    def test_huge_ratio_no_anomaly(self):
        report = electron_report(ElectronScenario(voltage_v=20e-3))
        assert report.ratio > 8
        stats = analytic.closed_form_stats(0.73, report.ratio)
        assert stats.mean_c >= 0
