"""Acceptance suite: one check per quantitative project target.

Each test prints a single PASS/FAIL line (visible with `pytest -s
tests/test_acceptance.py` or in the captured output of failures).

Criterion 3 checks the trade-off between anomaly and selection
probability that the model allows.  Momentum conservation and the cross
term give P_C <p>_C = delta (r^2 - t r K cos alpha) / 2 with
K = exp(-delta^2 / 4); writing t = cos(theta), r = sin(theta) and
minimising over theta gives P_C <p>_C >= -B(delta) with
B(delta) = delta (sqrt(1 + K^2) - 1) / 4.  So every cell with
<p>_C <= -0.3 W has P_C <= B(delta) / 0.3.  On the 200 x 200 alpha = 0
sweep the largest such P_C is 0.21319 (t = 0.92598, delta = 0.89 W;
direct quadrature agrees, see tests/test_analytic.py) against a bound of
0.21763; the tightest cell (same t, delta = 0.64 W) clears its bound of
0.18515 by 7.4e-4.
"""

import time

import numpy as np
import pytest

import program_gen
from qif import analytic, circuitfile as cf, feasibility
from qif import interferometer as mzi
from qif import spinor, splitstep as ss, wavepacket as wp
from qif.feasibility import ElectronScenario
from qif.splitstep import ImpulsePulse
from qif.wavepacket import GaussianParams
from test_fourier_identity import ref_mzi_splitstep

SEED = 20260823


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sweep_arrays(n=200):
    ts = np.linspace(0.01, 0.99, n)
    ds = np.linspace(2.0 / n, 2.0, n)
    tt, dd = np.meshgrid(ts, ds, indexing="ij")
    return tt, dd, analytic.stats_grid(tt, dd, alpha=0.0)


def test_criterion_1_reference_point():
    start = time.perf_counter()
    gauss = wp.gaussian_init(GaussianParams(), wp.default_grid())
    out_c, _ = mzi.run_mzi(gauss, 0.85, 0.2)
    oracle = analytic.closed_form_stats(0.85, 0.2, 0.0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(out_c.mean_p - oracle.mean_c) <= 1e-6
        and abs(out_c.probability - oracle.p_c) <= 1e-6
        and -0.31 <= out_c.mean_p <= -0.27
        and 0.054 <= out_c.probability <= 0.060
        and elapsed < 1.0
    )
    _report(1, ok, f"mean_C={out_c.mean_p:.6f}, P_C={out_c.probability:.6f}, "
                   f"runtime={elapsed:.3f}s")


def test_criterion_2_surface_minimum(sweep_minimum):
    start = time.perf_counter()
    t_star, d_star, value = sweep_minimum((0.01, 0.99, 200), (0.01, 2.0, 200))
    elapsed = time.perf_counter() - start
    ok = value <= -0.65 and d_star <= 0.05 and elapsed < 10.0
    _report(2, ok, f"min mean_C={value:.4f} at t={t_star:.4f}, delta={d_star:.3f}, "
                   f"runtime={elapsed:.3f}s")


def _tradeoff_bound(delta):
    """B(delta): the largest P_C |<p>_C| with <p>_C < 0 at kick delta.

    From delta alone (see the module docstring), so it does not lean on
    the closed forms it checks.
    """
    overlap = np.exp(-0.25 * delta * delta)
    return delta * (np.sqrt(1.0 + overlap * overlap) - 1.0) / 4.0


def test_criterion_3_anti_correlation():
    anomaly = 0.3
    _, dd, (p_c, mean_c, _, _) = _sweep_arrays()
    bound = _tradeoff_bound(dd)
    cells = mean_c <= -anomaly
    margin = bound[cells] / anomaly - p_c[cells]
    tight = int(np.argmin(margin))
    # the bound is also reached, so the check above cannot pass by being loose
    opposed = mean_c < 0
    attained = float(np.max(p_c[opposed] * -mean_c[opposed] / bound[opposed]))
    ok = bool(np.all(margin >= 0)) and attained >= 0.99
    _report(3, ok, f"cells with mean_C <= -{anomaly}W have P_C <= B(delta)/{anomaly}, "
                   f"tightest P_C={p_c[cells][tight]:.4f} vs bound "
                   f"{bound[cells][tight] / anomaly:.4f} (margin {margin[tight]:.1e}); "
                   f"max P_C|mean_C|/B(delta) over mean_C < 0 = {attained:.8f}")


def test_criterion_4_port_d_positive():
    _, _, (_, _, _, mean_d) = _sweep_arrays()
    lowest = float(np.min(mean_d))
    ok = lowest >= -1e-9
    _report(4, ok, f"min mean_D over the sweep = {lowest:.3e}")


def test_criterion_5_conservation():
    rng = np.random.default_rng(SEED)
    gauss = wp.gaussian_init(GaussianParams(), wp.default_grid())
    worst_grid = worst_oracle = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, 1.0)
        delta = rng.uniform(0.0, 2.0)
        alpha = rng.uniform(0.0, 2 * np.pi)
        r_sq_delta = (1 - t * t) * delta

        out_c, out_d = mzi.run_mzi(gauss, t, delta, alpha)
        worst_grid = max(worst_grid, mzi.conservation_residual(
            out_c.probability, out_c.mean_p, out_d.probability, out_d.mean_p, t, delta))
        s = analytic.closed_form_stats(t, delta, alpha)
        total = s.p_c * np.nan_to_num(s.mean_c) + s.p_d * np.nan_to_num(s.mean_d)
        worst_oracle = max(worst_oracle, abs(total - r_sq_delta))
    ok = worst_grid <= 1e-8 and worst_oracle <= 1e-12
    _report(5, ok, f"max residual grid={worst_grid:.2e}, oracle={worst_oracle:.2e}")


def test_criterion_6_unitarity():
    rng = np.random.default_rng(SEED + 1)
    gauss = wp.gaussian_init(GaussianParams(), wp.default_grid())
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.0, 1.0)
        delta = rng.uniform(0.0, 2.0)
        alpha = rng.uniform(0.0, 2 * np.pi)
        out_c, out_d = mzi.run_mzi(gauss, t, delta, alpha)
        worst = max(worst, abs(out_c.probability + out_d.probability - 1.0))
    ok = worst <= 1e-9
    _report(6, ok, f"max |P_C + P_D - 1| = {worst:.2e}")


def test_criterion_7_impulsive_force():
    grid = wp.default_grid()
    gauss = wp.gaussian_init(GaussianParams(), grid)
    psi = wp.to_position(gauss)
    # dispersion time m / W^2 = 1e4; tau = 0.2 is 2e-5 of it
    pulse = ImpulsePulse(force=1.0, duration=0.2, substeps=64, mass=1e4)
    after = ss.apply_impulse(psi, pulse)
    fidelity = ss.kick_fidelity(psi, after, 0.2)
    shift = wp.mean_momentum(wp.to_momentum(after))

    out_c, out_d = ref_mzi_splitstep(gauss, 0.85, pulse)  # both arms run the substep loop
    oracle = analytic.closed_form_stats(0.85, 0.2, 0.0)
    pipeline_dev = max(
        abs(out_c.probability - oracle.p_c), abs(out_c.mean_p - oracle.mean_c),
        abs(out_d.probability - oracle.p_d), abs(out_d.mean_p - oracle.mean_d),
    )
    ok = fidelity >= 0.999 and abs(shift - 0.2) <= 1e-9 and pipeline_dev <= 1e-4
    _report(7, ok, f"fidelity={fidelity:.6f}, mean shift={shift:.12f}, "
                   f"pipeline deviation={pipeline_dev:.2e}")


def test_criterion_8_feasibility():
    report = feasibility.electron_report(ElectronScenario())
    ok = 0.08 <= report.ratio <= 0.12 and 1.5e-6 <= report.beam_width_at_drift <= 2.0e-6
    _report(8, ok, f"delta/W={report.ratio:.4f}, "
                   f"sigma(1 m)={report.beam_width_at_drift * 1e6:.3f} um")


def test_criterion_9_bec_equivalence():
    rng = np.random.default_rng(SEED + 2)
    grid = wp.default_grid()
    gauss = wp.gaussian_init(GaussianParams(), grid)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.05, 0.95)
        da = rng.uniform(-1.0, 1.0)
        db = rng.uniform(-1.0, 1.0)
        out = spinor.run_protocol(gauss, t, da, db)
        ref, _ = mzi.run_mzi(gauss, t, db - da)
        raw_out = out.wavefunction.amplitudes * np.sqrt(out.probability)
        raw_ref = ref.wavefunction.amplitudes * np.sqrt(ref.probability)
        worst = max(worst, float(np.max(np.abs(raw_out - raw_ref))))
    ok = worst <= 1e-10
    _report(9, ok, f"max nodewise protocol/interferometer deviation = {worst:.2e}")


def test_criterion_10_parser_robustness():
    rng = np.random.default_rng(SEED + 3)
    roundtrips = mutations = fuzz = 0
    for _ in range(4000):
        program_gen.assert_roundtrip(program_gen.random_program_text(rng))
        roundtrips += 1
    for _ in range(4000):
        valid = program_gen.random_program_text(rng)
        mutated, expected_line = program_gen.mutate_program_text(valid, rng)
        try:
            cf.parse(mutated)
            raise AssertionError(f"mutation accepted:\n{mutated}")
        except cf.ParseError as err:
            assert err.line == expected_line, mutated
        mutations += 1
    alphabet = list("abz =.#\n\t0129+-eEé")
    for _ in range(2000):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 80)))
        try:
            cf.parse(text)
        except cf.ParseError:
            pass
        fuzz += 1
    _report(10, True, f"{roundtrips} round-trips, {mutations} line-accurate "
                      f"mutations, {fuzz} fuzz inputs, no crashes")


def _variance(wf):
    """Second central moment of |Phi(p)|^2."""
    prob = np.abs(wf.amplitudes) ** 2
    mean = wp.mean_momentum(wf)
    return float(np.sum((wf.grid.p - mean) ** 2 * prob) * wf.grid.dp / wp.norm(wf))


def test_criterion_11_shift_exactness():
    rng = np.random.default_rng(SEED + 4)
    grid = wp.default_grid()
    worst_mean = worst_var = 0.0
    for _ in range(100):
        # ranges keep the packet (and its shifted tail) well inside the grid
        w = rng.uniform(0.3, 1.5)
        mu = rng.uniform(-2.0, 2.0)
        delta = rng.uniform(-3.0, 3.0)
        gauss = wp.gaussian_init(GaussianParams(width=w, mean=mu), grid)
        shifted = wp.MomentumWavefunction(grid, wp.shift(grid, gauss.amplitudes, delta))
        worst_mean = max(
            worst_mean,
            abs(wp.mean_momentum(shifted) - wp.mean_momentum(gauss) - delta),
        )
        worst_var = max(worst_var, abs(_variance(shifted) - _variance(gauss)))
    ok = worst_mean <= 1e-9 and worst_var <= 1e-9
    _report(11, ok, f"max mean error={worst_mean:.2e}, "
                    f"max variance drift={worst_var:.2e}")
