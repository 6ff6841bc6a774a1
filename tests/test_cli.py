"""Command-line surface: subcommands, exit codes, CSV output."""

import argparse
import functools
import io
import os
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import program_gen
from qif import analytic, circuitfile, cli, interferometer as mzi, spinor, splitstep
from qif import wavepacket as wp
from qif.errors import ParameterError, QifError

CANONICAL = """\
source width=1 mean=0
bs t=0.85
kick path=B delta=0.2
recombine
select port=C
report moments
"""
HEADER = "t,delta,alpha,p_c,mean_c,p_d,mean_d,residual"


def run(argv):
    return cli.main(argv)


class TestSimulate:
    def test_canonical_file(self, tmp_path, capsys):
        path = tmp_path / "run.qif"
        path.write_text(CANONICAL)
        assert run(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "port C" in out
        assert "0.0566900545" in out
        assert "-0.292485069" in out

    def test_missing_file(self, tmp_path, capsys):
        assert run(["simulate", str(tmp_path / "absent.qif")]) == 3
        assert "error" in capsys.readouterr().err

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.qif"
        path.write_text("source width=1 mean=0\nbs q=1\n")
        assert run(["simulate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bare_value_is_a_parse_error_at_its_token(self, tmp_path, capsys):
        path = tmp_path / "bad.qif"
        path.write_text("source width=1 mean=0\nbs   0.5\n")
        assert run(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{path}: line 2, column 6: expected key=value, got '0.5'\n"
        assert captured.out == ""

    def test_byte_order_mark_starting_the_file_is_not_text(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.qif", tmp_path / "marked.qif"
        plain.write_text(CANONICAL + "report conservation\n", encoding="utf-8")
        marked.write_text(CANONICAL + "report conservation\n", encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert run(["simulate", str(plain)]) == 0
        expected = capsys.readouterr()
        assert run(["simulate", str(marked)]) == 0
        assert capsys.readouterr() == expected

    def test_byte_order_mark_inside_the_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "late.qif"
        path.write_text(CANONICAL.replace("kick", "\ufeffkick"), encoding="utf-8-sig")
        assert run(["simulate", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"{path}: line 3, column 1: unknown instruction '\\ufeffkick'\n")


class TestSweep:
    def _sweep(self, tmp_path, name, extra=(), t=(0.1, 0.9, 5), delta=(0.1, 1.9, 4)):
        out = tmp_path / name
        argv = ["sweep", "--t", *map(str, t), "--delta", *map(str, delta),
                "--out", str(out), *extra]
        assert run(argv) == 0
        return out.read_text()

    @staticmethod
    def _csv(rows):
        return [HEADER] + [",".join(format(x, ".17g") for x in row) for row in rows]

    def test_header_and_shape(self, tmp_path, capsys):
        text = self._sweep(tmp_path, "s.csv")
        lines = text.splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 1 + 5 * 4
        assert "min mean_C" in capsys.readouterr().out

    def test_t_major_order(self, tmp_path, capsys):
        text = self._sweep(tmp_path, "s.csv")
        rows = [l.split(",") for l in text.splitlines()[1:]]
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts)
        assert ts[0] == ts[3]  # delta varies fastest

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = self._sweep(tmp_path, "a.csv")
        b = self._sweep(tmp_path, "b.csv")
        assert a == b

    def test_rows_satisfy_invariants(self, tmp_path, capsys):
        text = self._sweep(tmp_path, "s.csv")
        for line in text.splitlines()[1:]:
            _, _, _, p_c, _, p_d, _, residual = map(float, line.split(","))
            assert abs(p_c + p_d - 1.0) <= 1e-9
            assert residual <= 1e-12

    def test_backend_agreement(self, tmp_path, capsys):
        oracle = self._sweep(tmp_path, "o.csv")
        grid = self._sweep(tmp_path, "g.csv", extra=["--backend", "grid"])
        for lo, lg in zip(oracle.splitlines()[1:], grid.splitlines()[1:]):
            vo = np.array([float(x) for x in lo.split(",")[:7]])
            vg = np.array([float(x) for x in lg.split(",")[:7]])
            np.testing.assert_allclose(vg, vo, atol=1e-6)

    @staticmethod
    def _oracle_rows(t, delta, alpha=0.0):
        rows = []
        for t in np.linspace(*t):
            for d in np.linspace(*delta):
                s = analytic.closed_form_stats(t, d, alpha)
                residual = abs(s.p_c * np.nan_to_num(s.mean_c)
                               + s.p_d * np.nan_to_num(s.mean_d) - (1.0 - t * t) * d)
                rows.append((t, d, alpha, s.p_c, s.mean_c, s.p_d, s.mean_d, residual))
        return rows

    @staticmethod
    def _grid_rows(t, delta, alpha):
        gauss = wp.gaussian_init(wp.GaussianParams(), wp.default_grid())
        rows = []
        for t in np.linspace(*t):
            for d in np.linspace(*delta):
                out_c, out_d = mzi.run_mzi(gauss, t, d, alpha)
                residual = mzi.conservation_residual(out_c.probability, out_c.mean_p,
                                                     out_d.probability, out_d.mean_p, t, d)
                rows.append((t, d, alpha, out_c.probability, out_c.mean_p,
                             out_d.probability, out_d.mean_p, residual))
        return rows

    def test_oracle_rows_equal_closed_form_stats(self, tmp_path, capsys):
        t_dark = 0.7071067811865476  # balanced splitter: port C is dark at delta = 0
        text = self._sweep(tmp_path, "s.csv", t=(0.5, t_dark, 3), delta=(0.0, 1.0, 3))
        rows = self._oracle_rows((0.5, t_dark, 3), (0.0, 1.0, 3))
        assert np.isnan(rows[-3][4])
        assert text.splitlines() == self._csv(rows)

    def test_large_delta_surface_accepted(self, tmp_path, capsys):
        # the residual rounds like 1e-16 |delta|: a correct surface must not be refused
        text = self._sweep(tmp_path, "big.csv", t=(0.1, 0.5, 3), delta=(0.0, 1e200, 3))
        rows = self._oracle_rows((0.1, 0.5, 3), (0.0, 1e200, 3))
        assert max(row[-1] for row in rows) > 1e-12
        assert text.splitlines() == self._csv(rows)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_grid_rows_equal_run_mzi(self, tmp_path, capsys, alpha):
        t_dark = 0.7071067811865476
        text = self._sweep(tmp_path, "g.csv", t=(0.5, t_dark, 3), delta=(0.0, 1.5, 3),
                           extra=["--backend", "grid", "--alpha", str(alpha)])
        rows = self._grid_rows((0.5, t_dark, 3), (0.0, 1.5, 3), alpha)
        assert np.isnan(rows[-3][4]) == (alpha == 0.0)
        assert text.splitlines() == self._csv(rows)

    # (t axis, delta axis, alpha, backend): every CSV byte comes from the writer
    WRITER_CASES = {
        "non_square": ((0.1, 0.9, 4), (0.0, 3.0, 7), 0.25, "oracle"),
        "descending_t": ((1.0, 0.0, 4), (0.0, 1.0, 3), -1.5, "oracle"),
        "alpha_negative_zero_dark_cell": ((0.5, 0.7071067811865476, 3), (0.0, 1.0, 3), -0.0,
                                          "oracle"),
        "subnormal_delta": ((0.1, 0.9, 3), (1e-310, 1e-300, 4), 0.0, "oracle"),
        "grid_2x3": ((0.5, 0.7071067811865476, 2), (0.0, 1.5, 3), -0.5, "grid"),
    }

    @pytest.mark.parametrize("t, delta, alpha, backend", WRITER_CASES.values(),
                             ids=WRITER_CASES.keys())
    def test_rows_equal_per_cell_values(self, tmp_path, capsys, t, delta, alpha, backend):
        text = self._sweep(tmp_path, "s.csv", t=t, delta=delta,
                           extra=["--alpha", str(alpha), "--backend", backend])
        rows = (self._oracle_rows if backend == "oracle" else self._grid_rows)(t, delta, alpha)
        assert text.splitlines() == self._csv(rows)

    @pytest.mark.parametrize("backend", ["oracle", "grid"])
    def test_all_dark_sweep_has_no_minimum(self, tmp_path, capsys, backend):
        # a balanced splitter and no kick: port C is dark in every cell
        text = self._sweep(tmp_path, "dark.csv", ["--backend", backend],
                           t=(0.7071067811865476, 0.7071067811865476, 2), delta=(0, 0, 2))
        assert all(row.split(",")[4] == "nan" for row in text.splitlines()[1:])
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "min mean_C = inf at t = nan, delta = nan"

    def test_percent_format_is_format(self):
        for x in (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, np.finfo(float).max, 0.1):
            assert "%.17g" % x == format(x, ".17g")

    def test_refused_sweep_leaves_out_unchanged(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_text("earlier results\n")
        argv = ["sweep", "--t", "0.1", "1.5", "3", "--delta", "0.1", "1.9", "3",
                "--out", str(out)]
        assert run(argv) == 3
        assert "transmission" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("lo, hi", [(0.0, 2.0), (0.75, -0.75), (2.0, -2.0)])
    def test_tall_t_axis_names_its_first_bad_t(self, tmp_path, capsys, lo, hi):
        steps = 2_000_001
        ts = np.linspace(lo, hi, steps)
        # the refusal a per-t loop in linspace order meets first
        first = next(i for i, t in enumerate(ts) if not 0.0 <= t <= 1.0)
        assert (lo > 1.0) == (first == 0)
        argv = ["sweep", "--t", str(lo), str(hi), str(steps), "--delta", "0", "1", "2",
                "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            f"error: transmission must lie in [0, 1], got {ts[first]}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_oracle_sweep_ignores_grid_setting(self, tmp_path, capsys):
        plain = self._sweep(tmp_path, "plain.csv")
        # not a power of two: a grid sweep refuses it
        assert self._sweep(tmp_path, "n.csv", extra=["--grid-n", "1000"]) == plain

    def test_unwritable_path(self, tmp_path, capsys):
        argv = ["sweep", "--t", "0.1", "0.9", "3", "--delta", "0.1", "1.9", "3",
                "--out", str(tmp_path / "no" / "dir" / "x.csv")]
        assert run(argv) == 3


class TestOracleCheck:
    def test_deterministic_under_seed(self, capsys):
        assert run(["oracle-check", "--samples", "20", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert run(["oracle-check", "--samples", "20", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_agreement_within_tolerance(self, capsys):
        assert run(["oracle-check", "--samples", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        dev = float(out.split("max |oracle - grid| = ")[1].split(" ")[0])
        assert dev <= 1e-6

    def test_worst_sample_equals_scalar_loop(self, capsys):
        assert run(["oracle-check", "--samples", "20", "--seed", "7"]) == 0
        rng = np.random.default_rng(7)
        gauss = wp.gaussian_init(wp.GaussianParams(), wp.default_grid())
        worst, worst_at = 0.0, None
        for _ in range(20):
            t, d = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0)
            alpha = rng.uniform(0.0, 2 * np.pi)
            s = analytic.closed_form_stats(t, d, alpha)
            out_c, out_d = mzi.run_mzi(gauss, t, d, alpha)
            dev = max(abs(s.p_c - out_c.probability), abs(s.p_d - out_d.probability),
                      abs(s.mean_c - out_c.mean_p), abs(s.mean_d - out_d.mean_p))
            if dev > worst:
                worst, worst_at = dev, (t, d, alpha)
        assert capsys.readouterr().out.splitlines()[1] == (
            f"max |oracle - grid| = {worst:.3e} at t = {worst_at[0]:.6f}, "
            f"delta = {worst_at[1]:.6f}, alpha = {worst_at[2]:.6f}")

    def test_zero_samples(self, capsys):
        assert run(["oracle-check", "--samples", "0", "--seed", "1"]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_coarse_grid_reports_larger_deviation(self, capsys):
        def max_dev(out):
            return float(out.split("max |oracle - grid| = ")[1].split(" at")[0])

        run(["oracle-check", "--samples", "50", "--seed", "1"])
        fine = max_dev(capsys.readouterr().out)
        # spectral convergence: even n=64 is exact to rounding, so a truly
        # coarse grid is needed to see discretization error at all
        run(["oracle-check", "--samples", "50", "--seed", "1", "--grid-n", "32"])
        coarse = max_dev(capsys.readouterr().out)
        assert fine <= 1e-6
        assert coarse > 100 * fine


def grid_stats(t, delta, alpha, grid):
    """The surface that sweep --backend grid and oracle-check compute."""
    return mzi.stats_grid(wp.gaussian_init(wp.GaussianParams(), grid), t, delta, alpha)


def run_mzi_loop(t, delta, alpha, grid):
    """run_mzi cell by cell: the reference that mzi.stats_grid matches bit for bit."""
    gauss = wp.gaussian_init(wp.GaussianParams(), grid)
    t, delta, alpha = np.broadcast_arrays(t, delta, alpha)
    stats = np.empty((4, t.size))
    for i, cell in enumerate(zip(t.flat, delta.flat, alpha.flat)):
        out_c, out_d = mzi.run_mzi(gauss, *cell)
        stats[:, i] = out_c.probability, out_c.mean_p, out_d.probability, out_d.mean_p
    return stats.reshape((4,) + t.shape)


T_DARK = 0.7071067811865476  # t = r: port C is dark at delta = 0, alpha = 0


@pytest.fixture()
def built_amplitudes(monkeypatch):
    """Counts the checked grid-amplitude objects built while a test runs."""
    built = []
    post_init = wp._GridAmplitudes.__post_init__
    monkeypatch.setattr(wp._GridAmplitudes, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    return built


def _surface(t, delta):
    return np.meshgrid(np.linspace(*t), np.linspace(*delta), indexing="ij")


class TestGridStats:
    """mzi.stats_grid equals the run_mzi loop byte for byte."""

    @staticmethod
    def assert_same_bytes(t, delta, alpha, grid=None):
        grid = grid or wp.default_grid()
        got = grid_stats(t, delta, alpha, grid)
        expected = run_mzi_loop(t, delta, alpha, grid)
        for column, reference in zip(got, expected):
            assert column.shape == reference.shape
            assert column.tobytes() == reference.tobytes()
        return got

    def test_oracle_check_samples(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform((0.05, 0.0, 0.0), (0.95, 2.0, 2.0 * np.pi), size=(80, 3))
        assert len(set(samples[:, 1])) == 80  # a kick ramp per sample
        self.assert_same_bytes(*samples.T)

    @pytest.mark.parametrize("alpha", [0.0, 0.37, np.pi])
    def test_t_major_surface(self, alpha):
        self.assert_same_bytes(*_surface((0.1, 0.95, 6), (0.05, 2.0, 6)), alpha)

    def test_dark_cell_signed_zero_kicks_and_a_t_1_row(self):
        # rows t = 1 (arm B empty), t = r (dark at delta = 0); -0.0 kicks beside 0.0
        t, delta = np.meshgrid([1.0, T_DARK, 0.4], [-0.0, 0.0, 0.6, -0.0], indexing="ij")
        got = self.assert_same_bytes(t, delta, 0.0)
        assert np.isnan(got.mean_c[1, :2]).all() and not np.isnan(got.mean_c[2]).any()
        self.assert_same_bytes(t, delta, -0.0)

    def test_descending_guard_refused_like_the_cell_loop(self, tmp_path, capsys):
        argv = ["sweep", "--t", "0.1", "0.9", "3", "--delta", "9", "7", "3",
                "--backend", "grid", "--out", str(tmp_path / "s.csv")]
        assert run(argv) == 3
        assert capsys.readouterr().err == "error: |delta|=9.0 exceeds guard 8.0\n"

    # a narrow grid (guard |delta| < 4), where kicks near 4 wrap past p = 8
    @pytest.mark.parametrize("t, delta", [
        ((0.6, 0.9, 3), (3.9, 3.99, 4)),   # every cell wraps: the first column's
        ((1.0, 0.6, 3), (3.9, 4.5, 2)),    # r = 0 on row 0, so the guard refuses 4.5 first
        ((0.6, 0.9, 2), (2.0, 3.95, 3)),   # only a later column wraps
    ], ids=["all_wrap", "guard_before_wrap", "later_column"])
    def test_refusal_names_the_first_cell_in_t_major_order(self, t, delta):
        grid = wp.GridSpec(256, -8.0, 8.0)
        tt, dd = _surface(t, delta)
        with pytest.raises(QifError) as expected:
            run_mzi_loop(tt, dd, 0.0, grid)
        with pytest.raises(QifError) as got:
            grid_stats(tt, dd, 0.0, grid)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_no_per_cell_objects(self, tmp_path, capsys, built_amplitudes):
        """A structural guard: the number of grid-amplitude objects does not grow with cells."""
        counts = []
        for steps in ("2", "6"):
            built_amplitudes.clear()
            argv = ["sweep", "--t", "0.1", "0.9", steps, "--delta", "0.1", "1.9", steps,
                    "--backend", "grid", "--grid-n", "256", "--out", str(tmp_path / "s.csv")]
            assert run(argv) == 0
            counts.append(len(built_amplitudes))
        assert counts[0] >= 1  # the counter sees the one Gaussian
        assert counts[0] == counts[1]

    @staticmethod
    def height(grid):
        """The rows of one stack of cells on grid."""
        return max(1, mzi.STACK_BYTES // (16 * grid.n_points))

    def test_short_last_stack(self):
        rows = self.height(wp.default_grid())
        samples = np.random.default_rng(5).uniform((0.05, -2.0, 0.0), (0.95, 2.0, 6.0),
                                                   size=(2 * rows + 3, 3))
        self.assert_same_bytes(*samples.T)

    def test_one_stack_mixes_signed_zero_and_nonzero_kicks(self):
        t = np.array([0.3, 0.5, 0.9, 0.2, 1.0, 0.7])
        delta = np.array([0.4, -0.0, -1.2, 0.0, 0.0, -0.0])
        alpha = np.array([0.0, 1.3, -0.0, 2.0, 0.5, -0.7])
        assert delta.size <= self.height(wp.default_grid())
        self.assert_same_bytes(t, delta, alpha)

    def test_stack_where_only_some_rows_are_dark_or_need_the_division(self, monkeypatch):
        # a kick of 0 leaves a row real, so a + i b has zero imaginary parts, whose sign
        # the multiply in _divide can miss: only those rows need numpy's division
        t = np.array([T_DARK, 0.4, T_DARK, 0.8, 0.6])
        delta = np.array([0.0, 0.0, 0.5, 1.1, -0.0])
        divided, divide = [], mzi._divide

        def counting(z, s, out=None):
            if z.ndim == 2:
                misses = ~(z.view(np.float64) * (1.0 / s)).all(axis=-1)
                divided.append((int(misses.sum()), len(z)))
            return divide(z, s, out)

        monkeypatch.setattr(mzi, "_divide", counting)
        got = self.assert_same_bytes(t, delta, 0.0)
        assert (3, 5) in divided  # recombine's stack: the three rows kicked by 0
        assert np.isnan(got.mean_c).tolist() == [True, False, False, False, False]
        assert not np.isnan(got.mean_d).any()

    @pytest.mark.parametrize("n_points", [2 ** 15, 256], ids=["one_row", "many_rows"])
    def test_grids_of_one_row_and_of_many_rows_per_stack(self, n_points):
        grid = wp.GridSpec(n_points, -16.0, 16.0)
        rows = self.height(grid)
        assert rows == 1 if n_points == 2 ** 15 else rows >= 32
        samples = np.random.default_rng(n_points).uniform((0.05, -2.0, 0.0), (0.95, 2.0, 6.0),
                                                          size=(rows + 2, 3))
        self.assert_same_bytes(*samples.T, grid=grid)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_surface(self, shape):
        got = self.assert_same_bytes(np.full(shape, 0.5), np.zeros(shape), 0.0)
        assert isinstance(got, mzi.PortStats)
        assert all(column.shape == shape for column in got)

    # three cells in one stack of the narrow grid: cells 0 and 2 refuse, and cell 0,
    # the first in t-major order, is the later one in delta order.  Then 4 t rows (two
    # values, t = 1 dark in arm B) of 40 kicks: one block of two steps kicked from arm B's
    # position image, where only the last kick column refuses, in the second step
    @pytest.mark.parametrize("t, delta, alpha, message", [
        ((0.6, 0.6, 0.7), (3.95, 0.1, 3.9), 0.0, "delta=3.95 moves"),
        ((1.5, 0.5, -0.5), (0.5, 0.2, 0.1), 0.0, "got 1.5"),
        (0.5, (0.5, 0.2, 0.1), (np.nan, 0.0, np.inf), "got nan"),
        (np.c_[[1.0, 0.6, 0.6, 1.0]], np.r_[np.linspace(0.0, 2.0, 39), 3.95], 0.0,
         "delta=3.95 moves"),
        (np.c_[[1.0, 0.6, 0.6, 1.0]], np.r_[np.linspace(0.0, 2.0, 39), np.nan], 0.0,
         "got nan"),
    ], ids=["wrap", "t_range", "alpha", "later_step_wrap", "later_step_nan"])
    def test_in_stack_refusal_names_the_first_cell_in_t_major_order(self, t, delta, alpha,
                                                                     message):
        grid = wp.GridSpec(256, -8.0, 8.0)
        assert self.height(grid) >= 3
        t, delta, alpha = np.broadcast_arrays(t, delta, alpha)
        with pytest.raises(QifError) as expected:
            run_mzi_loop(t, delta, alpha, grid)
        with pytest.raises(QifError) as got:
            grid_stats(t, delta, alpha, grid)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert message in str(got.value)

    def test_cross_stack_refusal_of_another_kind(self):
        # delta order puts cell 7 (t = 1.5) in the first stack and cell 0 (alpha nan) in the
        # second: the first refusing stack is not the one holding the t-major first refusal
        grid = wp.default_grid()
        assert self.height(grid) == 6
        t = [0.5, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.5]
        delta = [1.9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0]
        alpha = [np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ParameterError) as got:
            grid_stats(np.array(t), np.array(delta), np.array(alpha), grid)
        assert str(got.value) == "phase alpha must be finite, got nan"

    def test_stack_refusal_that_no_cell_repeats_is_raised(self, monkeypatch):
        # fail closed: when every cell passes alone, the stack's own refusal still stands
        split = mzi.split

        def split_refusing_stacks(input_wf, bs, *out):
            if np.ndim(bs.t) == 2:
                raise QifError("stack refused")
            return split(input_wf, bs, *out)

        monkeypatch.setattr(mzi, "split", split_refusing_stacks)
        with pytest.raises(QifError, match="^stack refused$"):
            grid_stats(np.array([0.5, 0.8]), np.array([0.2, 0.4]), 0.0, wp.default_grid())

    # a row holds cells of one t: blocks of t rows, each kicked from its position image
    @pytest.mark.parametrize("t, delta", [
        ((0.1, 0.95, 13), (0.05, 2.0, 4)),  # blocks of 6, 6 and 1 t rows
        ((0.3, 0.3, 1), (-2.0, 2.0, 20)),   # one t, dealt over the stack's rows
        ((0.1, 0.95, 9), (0.5, 0.5, 1)),    # one delta: every block has one step
        ((0.5, 0.5, 6), (-1.0, 2.0, 7)),    # a t axis of one repeated value
    ], ids=["13x4", "1x20", "9x1", "repeated_t_axis"])
    def test_surfaces_in_blocks_of_t_rows(self, t, delta):
        self.assert_same_bytes(*_surface(t, delta), 0.7)

    def test_random_cells_with_repeated_t_and_duplicated_cells(self):
        rng = np.random.default_rng(23)
        t = rng.choice([0.2, 0.45, T_DARK, 0.9], size=40)
        t[:12] = rng.uniform(0.05, 0.95, 12)  # t of their own
        delta = rng.choice(np.linspace(-1.5, 1.5, 7), size=40)
        alpha = rng.uniform(0.0, 2.0 * np.pi, 40)
        for x in (t, delta, alpha):
            x[30:] = x[5:15]  # ten cells twice
        self.assert_same_bytes(t, delta, alpha)

    def test_negative_zero_t_beside_zero(self):
        t, delta = np.meshgrid([0.0, -0.0, 0.6, -0.0], [0.3, -0.8, 1.4], indexing="ij")
        self.assert_same_bytes(t, delta, 0.4)
        t, delta = _surface((0.0, 0.9, 7), (-0.8, 1.4, 3))
        t[-1] = -0.0  # a row of its own, in the second block
        self.assert_same_bytes(t, delta, -0.0)

    def test_signed_zero_kicks_inside_a_block_of_several_steps(self):
        # 3 t of 5 cells, 2 rows each: a step of zero kicks only, then zero and nonzero mixed
        t, delta = np.meshgrid([0.3, 0.8, T_DARK], [-0.0, 0.0, 0.5, -0.0, 1.1], indexing="ij")
        got = self.assert_same_bytes(t, delta, 0.0)
        assert np.isnan(got.mean_c[2, [0, 1, 3]]).all()
        self.assert_same_bytes(t, delta, np.array([0.0, 1.3, -0.0, 2.0, 0.5]))

    @pytest.fixture()
    def transforms(self, monkeypatch):
        """Counts the rows that GridSpec.p_to_z transforms and the kick ramps built."""
        grid = wp.default_grid()
        mzi.stats_grid(wp.gaussian_init(wp.GaussianParams(), grid), 0.5, 0.3)  # grid caches
        counts = {"rows": 0, "ramps": 0}
        p_to_z, exp_ramp = wp.GridSpec.p_to_z, wp.GridSpec._exp_ramp

        def counting_p_to_z(self, phi, out=None):
            counts["rows"] += len(phi) if phi.ndim == 2 else 1
            return p_to_z(self, phi, out)

        def counting_exp_ramp(self, coeff):
            counts["ramps"] += 1
            return exp_ramp(self, coeff)

        monkeypatch.setattr(wp.GridSpec, "p_to_z", counting_p_to_z)
        monkeypatch.setattr(wp.GridSpec, "_exp_ramp", counting_exp_ramp)
        return counts

    @pytest.mark.parametrize("t_steps, delta_steps, blocks", [(6, 6, 1), (13, 4, 3)])
    def test_a_surface_transforms_each_t_row_once(self, transforms, t_steps, delta_steps,
                                                   blocks):
        assert self.height(wp.default_grid()) == 6
        grid_stats(*_surface((0.1, 0.95, t_steps), (0.05, 2.0, delta_steps)), 0.2,
                   wp.default_grid())
        assert transforms["rows"] == t_steps  # not one a cell
        assert 0 < transforms["ramps"] <= blocks * delta_steps

    def test_cells_of_distinct_t_transform_a_row_each(self, transforms):
        samples = np.random.default_rng(11).uniform((0.05, 0.0, 0.0), (0.95, 2.0, 2.0 * np.pi),
                                                    size=(80, 3))
        grid_stats(*samples.T, wp.default_grid())
        assert transforms == {"rows": 80, "ramps": 80}

    def test_stack_arrays_are_bounded_and_do_not_outlive_the_call(self):
        grid = wp.default_grid(4096)
        gauss = wp.gaussian_init(wp.GaussianParams(), grid)
        samples = np.random.default_rng(11).uniform((0.05, 0.0, 0.0), (0.95, 2.0, 2.0 * np.pi),
                                                    size=(80, 3))
        mzi.stats_grid(gauss, *samples.T)  # the FFT plans and grid caches are built here
        cached = set(grid.__dict__)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mzi.stats_grid(gauss, *samples.T)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = 16 * grid.n_points
        # the work arrays (three complex and one real, 1.38 MB) and a few rows in passing
        assert mzi.STACK_BYTES <= peak - before < 2_000_000
        assert after - before < 2 * row  # the last kick ramp, which replaced another
        assert set(grid.__dict__) == cached
        arrays = [v for v in grid.__dict__.values() if isinstance(v, np.ndarray)]
        arrays.append(grid.kick_ramp(samples[:, 1].max()))
        assert not any(array.flags.writeable for array in arrays)


def written_cell(gauss, t, delta, alpha):
    """One cell's raw port amplitudes, every operation written out in the pipeline's order."""
    grid, phi = gauss.grid, gauss.amplitudes
    a, b = t * phi, 1j * float(np.sqrt(1.0 - t * t)) * phi
    if delta != 0.0:  # a shift by 0 returns its input
        b = grid.z_to_p(grid.p_to_z(b) * np.exp(1j * delta * grid.z))
    b = np.exp(1j * alpha) * b
    return (a + 1j * b) / np.sqrt(2.0), (a - 1j * b) / np.sqrt(2.0)


#: (t, delta, alpha): a dark cell at delta = -0.0, a t = 1 cell, alpha = -0 on a negative kick
PIN_CELLS = [(0.85, 0.2, 0.0), (0.6, 0.5, 1.1), (T_DARK, -0.0, 0.0), (1.0, 0.7, 0.3),
             (0.3, -1.3, -0.0)]


class TestWrittenCell:
    """A bit pin of the kernel against its arithmetic written out, not only against run_mzi."""

    @pytest.mark.parametrize("t, delta, alpha", PIN_CELLS)
    def test_pipeline_equals_the_written_cell(self, gauss, t, delta, alpha):
        state = mzi.apply_kick(mzi.split(gauss, mzi.BeamSplitterCoeffs(t)), delta, alpha)
        for got, expected in zip(mzi.recombine(state), written_cell(gauss, t, delta, alpha)):
            assert got.tobytes() == expected.tobytes()

    def test_surface_equals_the_written_cells(self, gauss):
        surface = mzi.stats_grid(gauss, *np.array(PIN_CELLS).T)
        for i, cell in enumerate(PIN_CELLS):
            expected = [m for raw in written_cell(gauss, *cell)
                        for m in mzi.port_moments(gauss.grid, raw)[:2]]
            got = [column[i] for column in surface]
            assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestObjectsPerCall:
    """Checked wavefunctions are built at the source and at the ports only."""

    def test_reference_simulate(self, tmp_path, capsys, built_amplitudes):
        path = tmp_path / "ref.qif"
        path.write_text(CANONICAL.replace("recombine", "phase path=B alpha=0.3\nrecombine"))
        assert run(["simulate", str(path)]) == 0
        assert 1 <= len(built_amplitudes) <= 3  # the source and two ports

    def test_run_protocol(self, grid, built_amplitudes):
        spinor.run_protocol(wp.gaussian_init(wp.GaussianParams(), grid), 0.85, 0.1, 0.3)
        assert 1 <= len(built_amplitudes) <= 2  # the source and the selected state


REFERENCE = Path(__file__).resolve().parent.parent / "circuits" / "anomalous_kick.qif"


def fresh_env():
    """The environment of a fresh `qif` process: this one's, with qif on its path."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


class TestSharedGrid:
    """The process keeps one default grid; calls share it and still act as fresh processes."""

    def test_calls_match_fresh_processes(self, capsys, monkeypatch):
        """Shared grids and shared parsers: each call prints what a fresh process prints."""
        sequence = [
            ["simulate", str(REFERENCE)],
            ["bec", "--t", "0.85", "--delta-a", "0.1", "--delta-b", "0.3", "--check-mzi"],
            ["propagate", "--grid-n", "512", "--substeps", "8"],  # evicts the 4096 grid
            ["oracle-check", "--seed", "1", "--samples", "5"],
            ["simulate", str(REFERENCE)],
            ["propagate", "--substeps", "many"],  # a usage error, then a valid call
            ["propagate", "--substeps", "8"],
            ("40", "simulate", "-h"),  # help at two widths from one parser
            ("200", "simulate", "-h"),
            ["feasibility", "zz"],  # the full parser's usage error, then a valid call
            ["feasibility"],
        ]
        code = "import sys; from qif import cli; sys.exit(cli.main(sys.argv[1:]))"
        for argv in sequence:
            columns, argv = (argv[0], list(argv[1:])) if isinstance(argv, tuple) else ("80", argv)
            monkeypatch.setenv("COLUMNS", columns)
            try:
                exit_code = run(argv)
            except SystemExit as exc:
                exit_code = exc.code
            got = (*capsys.readouterr(), exit_code)
            alone = subprocess.run([sys.executable, "-c", code, *argv], env=fresh_env(),
                                   capture_output=True, text=True, timeout=120)
            assert got == (alone.stdout, alone.stderr, alone.returncode), argv

    def test_simulate_calls_share_one_grid(self, monkeypatch, capsys):
        grids, execute = [], circuitfile.execute
        monkeypatch.setattr(circuitfile, "execute",
                            lambda program, grid: grids.append(grid) or execute(program, grid))
        built, p_ramp = [], wp.GridSpec.__dict__["_p_ramp"].func
        counted = functools.cached_property(lambda grid: built.append(1) or p_ramp(grid))
        counted.__set_name__(wp.GridSpec, "_p_ramp")
        monkeypatch.setattr(wp.GridSpec, "_p_ramp", counted)
        wp.default_grid(64)  # evicts the 4096 grid, so this test sees it built
        for _ in range(3):
            assert run(["simulate", str(REFERENCE)]) == 0
        assert len(grids) == 3 and grids[0] is grids[1] is grids[2]
        assert len(built) == 1


class TestImport:
    @pytest.mark.parametrize("preset", [None, "2"])
    def test_no_openblas_worker_unless_asked(self, preset):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, sys, qif.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
                "print(open('/proc/self/status').read().split('Threads:')[1].split()[0] "
                "if sys.platform.startswith('linux') else 1)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        value, threads = done.stdout.split()
        assert value == (preset or "1")
        if preset is None:
            assert threads == "1"


class TestPropagate:
    def test_quasi_impulsive(self, capsys):
        assert run(["propagate", "--force", "1", "--tau", "0.2",
                    "--substeps", "32", "--mass", "1e4"]) == 0
        out = capsys.readouterr().out
        fid = float(out.split("fidelity vs exact shift = ")[1])
        shift = float(out.split("measured mean shift = ")[1].splitlines()[0])
        assert fid >= 0.999
        assert shift == pytest.approx(0.2, abs=1e-9)

    def test_zero_duration(self, capsys):
        assert run(["propagate", "--tau", "0"]) == 0
        fid = float(capsys.readouterr().out.split("fidelity vs exact shift = ")[1])
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_long_pulse_low_fidelity(self, capsys):
        assert run(["propagate", "--force", "1e-4", "--tau", "2000",
                    "--substeps", "256", "--mass", "1e4"]) == 0
        out = capsys.readouterr().out
        fid = float(out.split("fidelity vs exact shift = ")[1])
        shift = float(out.split("measured mean shift = ")[1].splitlines()[0])
        assert fid < 0.999
        assert shift == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("substeps", [10 ** 18, 2 ** 63])
    def test_substeps_past_the_bound_refused_at_once(self, capsys, substeps):
        start = time.perf_counter()
        assert run(["propagate", "--substeps", str(substeps)]) == 3
        assert time.perf_counter() - start < 1.0

    def test_substeps_bound_is_inclusive(self):
        assert splitstep.ImpulsePulse(1.0, 0.2, splitstep.MAX_SUBSTEPS).substeps == 10 ** 6
        with pytest.raises(QifError, match="got 1000001"):
            splitstep.ImpulsePulse(1.0, 0.2, splitstep.MAX_SUBSTEPS + 1)


class TestFeasibility:
    def test_defaults(self, capsys):
        assert run(["feasibility"]) == 0
        out = capsys.readouterr().out
        ratio = float(out.split("kick-to-width ratio      = ")[1].splitlines()[0])
        assert 0.08 <= ratio <= 0.12
        assert "55 um" in out

    def test_voltage_linearity(self, capsys):
        run(["feasibility"])
        base = float(capsys.readouterr().out
                     .split("kick-to-width ratio      = ")[1].splitlines()[0])
        run(["feasibility", "--voltage-mv", "0.4"])
        doubled = float(capsys.readouterr().out
                        .split("kick-to-width ratio      = ")[1].splitlines()[0])
        assert doubled == pytest.approx(2 * base, rel=1e-5)  # 6 printed digits

    def test_relativistic_rejected(self, capsys):
        assert run(["feasibility", "--energy-kev", "400"]) == 3


class TestFuzzFeasibility:
    """Any six floats exit 0 or 3 with one line; an accepted report is all finite."""

    OPTIONS = ("--energy-kev", "--slit-um", "--drift-m", "--plate-sep-mm", "--plate-len-cm",
               "--voltage-mv")
    # the extremes of the double range, where underflow and overflow live
    value = st.one_of(st.floats(), st.sampled_from([1e-300, 5e-318, 1e300, 1e308]))

    @given(values=st.tuples(*[value] * 6))
    @settings(max_examples=300, deadline=None)
    def test_scenario(self, values):
        # a leading space makes argparse read "-1.0" as a value, not an option
        argv = ["feasibility"]
        for option, x in zip(self.OPTIONS, values):
            argv += [option, f" {x!r}"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 3)
        assert err.getvalue().count("\n") == (code == 3)
        assert code == 0 or out.getvalue() == ""  # a refused run prints nothing
        if code == 0:
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


class TestFuzzPropagate:
    """Any force, duration, mass and step count exit 0 or 3 with one line and no warning; an
    accepted pulse prints no nan or inf.  A pulse is one FFT pair at any step count."""

    extreme = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.8e308])
    value = st.one_of(st.floats(), st.floats(0.0, 1.8e308), extreme)

    @given(force=value, tau=value, mass=value, substeps=st.integers(1, splitstep.MAX_SUBSTEPS))
    @settings(max_examples=300, deadline=None)
    def test_pulse(self, force, tau, mass, substeps):
        # a leading space makes argparse read "-1.0" as a value, not an option
        argv = ["propagate", "--force", f" {force!r}", "--tau", f" {tau!r}",
                "--mass", f" {mass!r}", "--substeps", str(substeps)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(argv)
        assert code in (0, 3)
        assert err.getvalue().count("\n") == (code == 3)
        assert code == 0 or out.getvalue() == ""  # a refused run prints nothing
        if code == 0:
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


class TestBec:
    def test_reference_run(self, capsys):
        assert run(["bec", "--t", "0.85", "--delta-a", "0.1",
                    "--delta-b", "0.3", "--check-mzi"]) == 0
        out = capsys.readouterr().out
        prob = float(out.split("P = ")[1].split(",")[0])
        mean = float(out.split("<p> = ")[1].splitlines()[0])
        diff = float(out.split("port C| = ")[1])
        assert prob == pytest.approx(0.0566900545, abs=1e-6)
        assert mean == pytest.approx(-0.2924850697, abs=1e-6)
        assert diff <= 1e-10

    def test_equal_kicks_zero_mean(self, capsys):
        assert run(["bec", "--t", "0.85", "--delta-a", "0.2", "--delta-b", "0.2"]) == 0
        mean = float(capsys.readouterr().out.split("<p> = ")[1].splitlines()[0])
        assert mean == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("kick", ["0.3", "0.005"])
    def test_dark_run_prints_the_dark_line(self, capsys, kick):
        # A holds only rounding noise after the second pulse; its kick once
        # raised a wrap error measured against that noise
        assert run(["bec", "--t", "0.7071067811865476", "--delta-a", kick,
                    "--delta-b", kick, "--check-mzi"]) == 0
        captured = capsys.readouterr()
        line = captured.out.splitlines()[1]
        prob = float(line.removeprefix("select A: P = ").removesuffix(", <p> undefined (dark)"))
        assert 0 <= prob < wp.DARK_THRESHOLD
        assert captured.err == ""

    def test_dark_check_mzi_compares_raw_amplitudes(self, capsys):
        """A dark outcome holds the raw amplitudes: they are not scaled by sqrt(P) again."""
        t, kick = 0.7071067811865476, 0.3
        assert run(["bec", "--t", repr(t), "--delta-a", str(kick), "--delta-b", str(kick),
                    "--check-mzi"]) == 0
        printed = capsys.readouterr().out.split("port C| = ")[1].strip()
        grid = wp.default_grid()
        gauss = wp.gaussian_init(wp.GaussianParams(), grid)
        state = mzi.TwoPathState(grid, gauss.amplitudes, np.zeros(grid.n_points, complex))
        state = spinor.microwave_pulse(state, t)
        state = spinor.stern_gerlach(state, kick, kick)
        state = spinor.microwave_pulse(state, 1.0 / np.sqrt(2.0))
        protocol_a = spinor.stern_gerlach(state, -kick, -kick).path_a
        raw_c, _ = mzi.recombine(mzi.apply_kick(
            mzi.split(gauss, mzi.BeamSplitterCoeffs(t)), 0.0))
        diff = np.max(np.abs(protocol_a - raw_c))
        assert diff > 1e-17  # scaled by sqrt(P) ~ 2e-16 it read 3.676e-32
        assert printed == f"{diff:.3e}"


    def test_unselected_state_is_not_kicked_back(self, capsys):
        # at t = 0.99, B's inverse kick of +5.52 would wrap 1.1e-12 of its norm, but only
        # the selected state A is kicked back
        t, delta = 0.99, 5.52 - -5.52
        assert run(["bec", "--t", str(t), "--delta-a", "-5.52", "--delta-b", "5.52"]) == 0
        captured = capsys.readouterr()
        prob = float(captured.out.split("P = ")[1].split(",")[0])
        mean = float(captured.out.split("<p> = ")[1].splitlines()[0])
        oracle = analytic.closed_form_stats(t, delta)
        assert prob == pytest.approx(oracle.p_c, abs=1e-9)
        assert mean == pytest.approx(oracle.mean_c, abs=1e-9)
        assert captured.err == ""

    def test_selected_state_kick_back_that_wraps_is_refused(self, capsys):
        assert run(["bec", "--t", "0.1", "--delta-a", "-5.52", "--delta-b", "5.52"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: delta=5.52 moves 1.14e-12 of the norm past the grid edge\n"
        assert captured.out == ""

    def test_refused_check_mzi_prints_nothing(self, capsys):
        # once printed the protocol's two lines before the comparison refused |delta| = 8.5
        assert run(["bec", "--t", "0.85", "--delta-a", "-4", "--delta-b", "4.5",
                    "--check-mzi"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: |delta|=8.5 exceeds guard 8.0\n"
        assert captured.out == ""


class TestFuzzBecOracleCheck:
    """Any bec kicks and t, and any oracle-check sample count and seed, exit 0, 2 or 3 with at
    most one stderr line and no warning; an accepted run prints no nan or inf."""

    extreme = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.8e308, -1.8e308])
    # every finite double, subnormals and signed zeros among them, and values that run
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-10.0, 10.0),
                      extreme)

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") <= 1
        assert code == 0 or out.getvalue() == ""  # a refused run prints nothing
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
        return code

    @given(t=st.one_of(value, st.floats(0.0, 1.0)), delta_a=value, delta_b=value,
           check_mzi=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bec(self, t, delta_a, delta_b, check_mzi):
        # a leading space makes argparse read "-1.0" as a value, not an option
        argv = ["bec", "--t", f" {t!r}", "--delta-a", f" {delta_a!r}",
                "--delta-b", f" {delta_b!r}"] + ["--check-mzi"] * check_mzi
        self._run(argv)

    kick = st.floats(-7.99, 7.99)

    @given(t=st.floats(0.0, 1.0), delta_a=kick, delta_b=kick)
    @settings(max_examples=100, deadline=None)
    def test_bec_check_mzi(self, t, delta_a, delta_b):
        """Kicks the protocol runs, whose difference the port-C comparison may refuse."""
        self._run(["bec", "--t", repr(t), "--delta-a", f" {delta_a!r}",
                   "--delta-b", f" {delta_b!r}", "--check-mzi"])

    @given(samples=st.integers(-1, 20), seed=st.integers(-1, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_oracle_check(self, samples, seed):
        code = self._run(["oracle-check", "--samples", str(samples), "--seed", str(seed)])
        assert code == (3 if min(samples, seed) < 0 else 0)

# inputs that once escaped main as a traceback, or were silently ignored or
# wrapped; "{file}" stands for a circuit file holding the case's text
REFUSED = [
    ("bs_t_out_of_range", CANONICAL.replace("t=0.85", "t=1.5"),
     ["simulate", "{file}"], "line 2"),
    ("zero_width", CANONICAL.replace("width=1", "width=0"),
     ["simulate", "{file}"], "line 1"),
    ("bec_t_out_of_range", None,
     ["bec", "--t", "2", "--delta-a", "0", "--delta-b", "0.2"], "transmission"),
    ("zero_substeps", None, ["propagate", "--substeps", "0"], "substeps"),
    # once a loop of centuries: only substeps < 1 was refused
    ("propagate_substeps_1e18", None, ["propagate", "--substeps", str(10 ** 18)],
     "substeps must be in [1, 1000000], got 1000000000000000000"),
    ("propagate_substeps_2_to_63", None, ["propagate", "--substeps", str(2 ** 63)],
     "substeps must be in [1, 1000000], got 9223372036854775808"),
    ("zero_mass", None, ["propagate", "--mass", "0"], "mass"),
    ("negative_samples", None,
     ["oracle-check", "--samples", "-1", "--seed", "1"], "samples"),
    ("negative_seed", None, ["oracle-check", "--seed", "-1"],
     "--seed must be non-negative, got -1"),
    ("feasibility_voltage_nan", None, ["feasibility", "--voltage-mv", "nan"], "voltage_v"),
    ("feasibility_voltage_infinite", None, ["feasibility", "--voltage-mv", "inf"],
     "voltage_v must be finite, got inf"),
    ("feasibility_plate_length_infinite", None, ["feasibility", "--plate-len-cm", "inf"],
     "plate_length_m must be finite, got inf"),
    ("feasibility_drift_infinite", None, ["feasibility", "--drift-m", "inf"],
     "drift_distance_m must be finite, got inf"),
    ("feasibility_slit_infinite", None, ["feasibility", "--slit-um", "inf"],
     "slit_width_m must be finite, got inf"),
    # sigma0 squared underflows to 0, so the spread after the drift is infinite
    ("feasibility_slit_underflows", None, ["feasibility", "--slit-um", "1e-300"],
     "non-finite beam_width_at_drift = inf"),
    # sigma0 = 5e-324 / 2 rounds to 0: once a ZeroDivisionError
    ("feasibility_slit_subnormal", None, ["feasibility", "--slit-um", "5e-318"],
     "non-finite beam_width_at_drift = nan, momentum_width = inf"),
    ("feasibility_energy_underflows", None, ["feasibility", "--energy-kev", "1e-300"],
     "non-finite time_of_flight = inf"),
    ("simulate_grid_not_power_of_two", CANONICAL,
     ["simulate", "{file}", "--grid-n", "1000"], "power of two"),
    ("grid_sweep_not_power_of_two", None,
     ["sweep", "--t", "0.1", "0.9", "3", "--delta", "0", "1", "3", "--backend", "grid",
      "--grid-n", "1000", "--out", "{file}"], "power of two"),
    ("grid_flag_zero", CANONICAL,
     ["simulate", "{file}", "--grid-n", "0"], "power of two"),
    ("kick_wraps_past_grid_edge",
     CANONICAL.replace("mean=0", "mean=9").replace("t=0.85", "t=0.8")
     .replace("delta=0.2", "delta=7.9"),
     ["simulate", "{file}"], "line 3"),
    ("circuit_not_utf8", b"source width=1 mean=0\n\xff\xfe\n",
     ["simulate", "{file}"], "utf-8"),
    ("sweep_t_out_of_range", None,
     ["sweep", "--t", "0.1", "1.5", "3", "--delta", "0", "1", "3", "--out", "{file}"],
     "transmission"),
    ("sweep_delta_infinite", None,
     ["sweep", "--t", "0.1", "0.5", "3", "--delta", "0", "inf", "3", "--out", "{file}"],
     "--delta HI must be finite, got inf"),
    ("sweep_alpha_nan", None,
     ["sweep", "--t", "0.1", "0.5", "3", "--delta", "0", "1", "3", "--alpha", "nan",
      "--out", "{file}"], "--alpha must be finite, got nan"),
    ("propagate_force_infinite", None, ["propagate", "--force", "inf"],
     "force must be finite, got inf"),
    ("propagate_tau_nan", None, ["propagate", "--tau", "nan"],
     "duration must be finite and non-negative, got nan"),
    ("source_narrower_than_grid_step", CANONICAL.replace("width=1", "width=0.001"),
     ["simulate", "{file}"], "line 1"),
    # dp < W, but the sampled norm is off by 1e-4: P_C + P_D - 1 = 1.03e-4
    ("circuit_breaks_unitarity",
     CANONICAL.replace("width=1", "width=0.0078125").replace("t=0.85", "t=0.6")
     .replace("delta=0.2", "delta=0.001"),
     ["simulate", "{file}"], "line 4: recombine: unitarity violated"),
    ("propagate_mass_subnormal", None, ["propagate", "--mass", "1e-320"], "mass=1e-320"),
    # each substep's phase fits, the whole pulse's overflows: refused before its one phase
    ("propagate_pulse_phase_overflows", None,
     ["propagate", "--mass", "1e-308", "--substeps", "1000000"],
     "kinetic phase p^2 dt/m overflows at mass=1e-308"),
    # p^2 dt/m fits, but numpy divides by m as times 1/m, which overflows: once a RuntimeWarning
    ("propagate_mass_reciprocal_overflows", None,
     ["propagate", "--mass", "1e-320", "--tau", "1e-300"], "kinetic phase p^2 dt/m overflows"),
    # once exit 0 with "mass = inf" and fidelity 1
    ("propagate_mass_infinite", None, ["propagate", "--mass", "inf"],
     "mass must be positive and finite, got inf"),
    # once reported as a wrap: nan compares false with the quarter-span guard
    ("bec_kick_nan", None, ["bec", "--t", "0.5", "--delta-a", "nan", "--delta-b", "0"],
     "kick delta must be finite, got nan"),
    ("propagate_force_overflows", None, ["propagate", "--force", "1e308"],
     "potential phase F z dt/2 overflows at force=1e+308"),
    ("sweep_one_step", None,
     ["sweep", "--t", "0.1", "0.9", "1", "--delta", "0", "1", "3", "--out", "{file}"],
     "sweep needs at least 2 steps per axis"),
    ("sweep_fractional_steps", None,
     ["sweep", "--t", "0.1", "0.9", "2.5", "--delta", "0", "1", "2", "--out", "{file}"],
     "--t STEPS must be a whole number, got 2.5"),
    ("sweep_too_many_cells", None,
     ["sweep", "--t", "0.1", "0.9", "1e300", "--delta", "0", "1", "2", "--out", "{file}"],
     "exceeds MAX_SWEEP_CELLS"),
    # numpy refuses these PiB arrays before it touches memory: once a traceback, exit 1
    ("oracle_check_samples_past_memory", None,
     ["oracle-check", "--samples", str(10 ** 15), "--seed", "1"], "error: Unable to allocate"),
    ("bec_grid_past_memory", None,
     ["bec", "--t", "0.5", "--delta-a", "0", "--delta-b", "0.2", "--grid-n", str(2 ** 50)],
     "error: Unable to allocate"),
    ("propagate_grid_past_memory", None, ["propagate", "--grid-n", str(2 ** 50)],
     "error: Unable to allocate"),
    ("simulate_grid_past_memory", CANONICAL,
     ["simulate", "{file}", "--grid-n", str(2 ** 50)], "error: Unable to allocate"),
    ("grid_sweep_past_memory", None,
     ["sweep", "--t", "0.1", "0.9", "3", "--delta", "0", "1", "3", "--backend", "grid",
      "--grid-n", str(2 ** 50), "--out", "{file}"], "error: Unable to allocate"),
    # sizes whose complex (or sample) arrays numpy cannot address at all: once a
    # ValueError traceback, exit 1; at 2^63 a false "amplitude array does not match grid"
    ("propagate_grid_past_address", None, ["propagate", "--grid-n", str(2 ** 62)],
     "n_points=4611686018427387904 is too large for a complex array"),
    ("bec_grid_past_address", None,
     ["bec", "--t", "0.5", "--delta-a", "0", "--delta-b", "0.2", "--grid-n", str(2 ** 62)],
     "n_points=4611686018427387904 is too large"),
    ("simulate_grid_past_address", CANONICAL,
     ["simulate", "{file}", "--grid-n", str(2 ** 62)], "n_points=4611686018427387904"),
    ("grid_sweep_past_address", None,
     ["sweep", "--t", "0.1", "0.9", "3", "--delta", "0", "1", "3", "--backend", "grid",
      "--grid-n", str(2 ** 62), "--out", "{file}"], "n_points=4611686018427387904"),
    ("propagate_grid_2_to_63", None, ["propagate", "--grid-n", str(2 ** 63)],
     "n_points=9223372036854775808 is too large for a complex array"),
    ("simulate_grid_2_to_64", CANONICAL, ["simulate", "{file}", "--grid-n", str(2 ** 64)],
     "n_points=18446744073709551616 is too large for a complex array"),
    ("oracle_check_samples_past_address", None,
     ["oracle-check", "--samples", str(2 ** 62), "--seed", "1"],
     "--samples=4611686018427387904 is too large for a numpy array"),
    # finite bounds whose difference overflows; argparse reads "-1e308" as an option
    ("sweep_delta_span_overflows", None,
     ["sweep", "--t", "0.1", "0.9", "3", "--delta", "-1" + "0" * 308, "1e308", "3",
      "--out", "{file}"], "--delta span HI - LO overflows"),
]


@pytest.mark.parametrize("text, argv, fragment",
                         [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_bad_input_refused(tmp_path, capsys, text, argv, fragment):
    path = tmp_path / "case.qif"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    code = run([arg.replace("{file}", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert fragment in captured.err
    assert captured.err.count("\n") == 1  # the one message, no warnings
    assert captured.out == ""
    assert path.exists() == (text is not None)  # a refused sweep writes no file


COMMANDS = ("simulate", "sweep", "oracle-check", "propagate", "feasibility", "bec")
SWEEP_AXES = ["--t", "0.1", "0.9", "3", "--delta", "0", "1", "3"]
# argv each subcommand accepts, cheap to run in a temporary directory
VALID_ARGV = {
    "simulate": ["simulate", "x.qif"],
    "sweep": ["sweep", *SWEEP_AXES, "--out", "x.csv"],
    "oracle-check": ["oracle-check", "--seed", "1", "--samples", "2"],
    "propagate": ["propagate", "--substeps", "8"],
    "feasibility": ["feasibility"],
    "bec": ["bec", "--t", "0.8", "--delta-a", "0", "--delta-b", "1"],
}
# argv that the parser itself answers, with help text or a usage error
PARSER_ARGV = [
    [], ["-h"], *([command, "-h"] for command in COMMANDS),
    ["frobnicate"], ["simul", "x.qif"],                       # unknown, abbreviated
    ["sweep", *SWEEP_AXES], ["oracle-check"], ["simulate"],   # a required argument missing
    ["simulate", "--grid-n"], ["sweep", "--t", "1", "2"],     # too few option values
    ["propagate", "--substeps", "many"],                      # a bad type
    ["sweep", *SWEEP_AXES, "--backend", "fft", "--out", "x.csv"],  # a bad choice
    ["simulate", "x.qif", "--bogus", "1"], ["feasibility", "extra"],  # unrecognized
]
# valid argv in the forms argparse accepts, each subcommand's among them
NAMESPACE_ARGV = [
    *VALID_ARGV.values(),
    ["propagate", "--force=2.5", "--tau=0.1"],                # --opt=value
    ["simulate", "--", "x.qif"],                              # --
    ["simulate", "--grid", "8", "x.qif"],                     # an abbreviated option
    ["simulate", "--grid-n", "8", "x.qif"],                   # options before a positional
    ["bec", "--check-mzi", "--delta-b", "1", "--t", "0.8", "--delta-a", "0"],
    ["bec", "--t", "0.8", "--delta-a", "-1e-3", "--delta-b", "0.2"],  # negative numbers
    ["sweep", "--t", "0.1", "0.9", "3", "--delta", "-1e-1", "1", "3", "--out", "x.csv"],
]


def _parser_exit(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


class TestParserText:
    """A call builds the parser for its own subcommand; what it prints is the full parser's."""

    @staticmethod
    def _prints_what_the_full_parser_prints(argv, monkeypatch):
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            expected = _parser_exit(cli.build_parser().parse_args, argv)
            assert expected[2] in (0, 2)
            assert _parser_exit(run, argv) == expected

    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, argv, monkeypatch):
        self._prints_what_the_full_parser_prints(argv, monkeypatch)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_stray_argument_gets_the_full_usage(self, command, monkeypatch):
        argv = [*VALID_ARGV[command], "zz"]
        assert _parser_exit(run, argv)[2] == 2
        self._prints_what_the_full_parser_prints(argv, monkeypatch)

    @pytest.mark.parametrize("argv", NAMESPACE_ARGV, ids=" ".join)
    def test_namespace_is_the_full_parsers(self, argv):
        args = cli.parse_args(argv)
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
        assert (args.command, args.func) == (argv[0], cli.SUBCOMMANDS[argv[0]][1])

    def test_lone_subcommand_registers_only_itself(self):
        assert _parser_exit(cli.build_parser("bec").parse_args, ["simulate", "x.qif"])[2] == 2

    def test_each_process_builds_each_parser_once(self, monkeypatch, tmp_path, capsys):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda *c: built.append((c, real(*c))) or built[-1][1])
        assert run(["feasibility"]) == run(["feasibility"]) == 0
        assert len(built) == 2 and built[0][1] is built[1][1]
        # a valid call still asks for a parser once, with its own name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.batch").write_text("feasibility\n")
        for command, argv in [*VALID_ARGV.items(), ("batch", ["batch", "one.batch"])]:
            built.clear()
            run(argv)
            assert [c for c, _ in built] == [(command,)] + [("feasibility",)] * (command == "batch")
            # a stray argument then asks for the full parser
            built.clear()
            assert _parser_exit(run, [*argv, "zz"])[2] == 2
            assert [c for c, _ in built] == [(command,), ()]
        for argv in ([], ["-h"], ["frobnicate"]):
            built.clear()
            _parser_exit(run, argv)
            assert [c for c, _ in built] == [()]
        # an unknown or abbreviated name is the full parser's, so it adds no parser
        cached = cli._build_parser.cache_info().currsize
        for i in range(50):
            assert real(f"unknown-{i}") is real("simul") is real() is real(None)
        assert cli._build_parser.cache_info().currsize == cached == 1


class TestParserTree:
    """One argparse tree per process: the full parser and a subparser per subcommand."""

    def test_first_call_builds_the_tree_and_later_calls_none(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda parser, *a, **kw: built.append(1) or init(parser, *a, **kw))
        cli._build_parser.cache_clear()
        assert run(["feasibility"]) == 0
        assert len(built) == 1 + len(cli.SUBCOMMANDS)
        built.clear()
        for argv in VALID_ARGV.values():
            run(argv)
        for argv in (["frobnicate"], ["-h"], ["feasibility", "zz"]):
            _parser_exit(run, argv)
        assert built == []

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_describes_each_subcommand_once(self, flag, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse may wrap a help line at a hyphen
        out, _, code = _parser_exit(run, [flag])
        text = " ".join(out.split())
        assert code == 0
        for help_text, _, _ in cli.SUBCOMMANDS.values():
            assert text.count(help_text) == 1, help_text
        assert "Exit codes: 0 success, 2 circuit parse error, 3 runtime error." in text


EXAMPLES = REFERENCE.with_name("examples.batch")


class TestBatch:
    """`qif batch` runs each line through cli.main in one process, as fresh processes would."""

    MORE = [  # beyond the committed example
        "sweep --t 0.2 0.8 3 --delta 0 1 2 --backend grid --out 'grid scan.csv'",
        "simulate circuits/anomalous_kick.qif --grid-n 2048",  # another grid size
        "   # an indented comment",
        "simulate broken.qif",  # a .qif parse error: 2
        "propagate --substeps 0",  # a refusal: 3
        "sweep --t 0.1 0.9 3",  # a usage error: 2
        "bec -h",
        "",
        "feasibility",
    ]

    def test_batch_prints_what_fresh_processes_print(self, tmp_path):
        lines = [*EXAMPLES.read_text().splitlines(), *self.MORE]
        text = "\n".join(lines) + "\n"
        dirs = {side: tmp_path / side for side in ("fresh", "file", "stdin")}
        for cwd in dirs.values():
            (cwd / "circuits").mkdir(parents=True)
            (cwd / "circuits" / REFERENCE.name).write_bytes(REFERENCE.read_bytes())
            (cwd / "broken.qif").write_text("source width=1 mean=0\nbs t=2\n")
        (dirs["file"] / "all.batch").write_text(text)
        env, qif = {**fresh_env(), "COLUMNS": "80"}, [sys.executable, "-m", "qif.cli"]

        def run_in(side, argv, stdin=None):
            return subprocess.run([*qif, *argv], cwd=dirs[side], env=env, input=stdin,
                                  capture_output=True, text=True, timeout=120)

        alone = [run_in("fresh", shlex.split(line)) for line in lines
                 if line.strip() and not line.lstrip().startswith("#")]
        assert [done.returncode for done in alone].count(0) == len(alone) - 3
        expected = ("".join(done.stdout for done in alone), "".join(done.stderr for done in alone),
                    3)
        for side, argv, stdin in (("file", ["batch", "all.batch"], None),
                                  ("stdin", ["batch", "-"], text)):
            done = run_in(side, argv, stdin)
            assert (done.stdout, done.stderr, done.returncode) == expected, side
            for csv in ("scan.csv", "grid scan.csv"):
                assert (dirs[side] / csv).read_bytes() == (dirs["fresh"] / csv).read_bytes()

    def test_one_stream_keeps_line_order(self, tmp_path):
        """With stderr on stdout's pipe and stdout block-buffered, a line's error still comes
        after the output of the lines before it, as in a sequence of fresh processes."""
        lines = ["feasibility", "simulate missing.qif", "feasibility --drift-m 2"]
        (tmp_path / "mixed.batch").write_text("\n".join(lines) + "\n")
        env = {key: value for key, value in fresh_env().items() if key != "PYTHONUNBUFFERED"}

        def merged(argv):
            return subprocess.run([sys.executable, "-m", "qif.cli", *argv], cwd=tmp_path,
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=120).stdout

        got = merged(["batch", "mixed.batch"])
        assert got == b"".join(merged(shlex.split(line)) for line in lines)
        assert got.index(b"error:") > got.index(b"(context:")

    def test_refusals(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("empty.batch").write_text("# nothing to run\n\n")
        assert run(["batch", "empty.batch"]) == 0
        assert capsys.readouterr() == ("", "")
        # a refused line counts as a parse error, and the remaining lines still run
        Path("nested.batch").write_text("batch nested.batch\nfeasibility\n")
        assert run(["batch", "nested.batch"]) == 2
        out, err = capsys.readouterr()
        assert err == "nested.batch: line 1: a batch cannot run batch\n"
        assert out.startswith("electron speed")
        Path("quote.batch").write_text("\nfeasibility --slit-um 'two\nfeasibility\n")
        assert run(["batch", "quote.batch"]) == 2
        out, err = capsys.readouterr()
        assert err == "quote.batch: line 2: No closing quotation\n"
        assert out.startswith("electron speed")
        assert run(["batch", "missing.batch"]) == 3
        assert capsys.readouterr() == (
            "", "error: [Errno 2] No such file or directory: 'missing.batch'\n")

    def test_byte_order_mark_starting_the_file_is_not_text(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.qif").write_text(CANONICAL)
        text = "simulate run.qif\nfeasibility --drift-m 2\nsimulate missing.qif\n"
        Path("plain.batch").write_text(text, encoding="utf-8")
        Path("marked.batch").write_text(text, encoding="utf-8-sig")
        assert Path("marked.batch").read_bytes()[:3] == b"\xef\xbb\xbf"
        assert run(["batch", "plain.batch"]) == 3
        expected = capsys.readouterr()
        assert expected.out.startswith("port C")
        assert run(["batch", "marked.batch"]) == 3
        assert capsys.readouterr() == expected

    def test_byte_order_mark_starting_the_stream_is_not_text(self):
        lines = "feasibility --drift-m 2\n"
        qif = [sys.executable, "-m", "qif.cli", "batch", "-"]
        plain, marked = (subprocess.run(qif, input=(mark + lines).encode(), env=fresh_env(),
                                        capture_output=True, timeout=120)
                         for mark in ("", "\ufeff"))
        assert plain.returncode == 0 and plain.stdout.startswith(b"electron speed")
        assert (marked.stdout, marked.stderr, marked.returncode) == (
            plain.stdout, plain.stderr, plain.returncode)

    def test_byte_order_mark_on_stdin_in_process(self, monkeypatch, capsys):
        def batch(text):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            return run(["batch", "-"]), capsys.readouterr()

        expected = batch("feasibility --drift-m 2\n")
        assert expected[0] == 0 and expected[1].out.startswith("electron speed")
        assert batch("\ufefffeasibility --drift-m 2\n") == expected
        # a mark that does not start the input is still refused
        for text in ("\ufeff\ufefffeasibility\n", "feasibility\n\ufefffeasibility\n"):
            code, (_, err) = batch(text)
            assert code == 2 and "invalid choice: '\\ufefffeasibility'" in err

    @pytest.mark.parametrize("argv", [["batch"], ["batch", "-h"], ["batch", "a", "zz"]],
                             ids=" ".join)
    def test_parser_text_is_the_full_parsers(self, argv, monkeypatch):
        TestParserText._prints_what_the_full_parser_prints(argv, monkeypatch)


class TestBrokenPipe:
    """A reader that leaves ends the process: one error line, exit 3, and no later batch line."""

    ERROR = b"error: [Errno 32] Broken pipe\n"

    @staticmethod
    def start(tmp_path, argv, unbuffered, stdout):
        (tmp_path / "wave.qif").write_text(CANONICAL.replace("moments", "wavefunction"))
        (tmp_path / "three.batch").write_text(  # a report of about 230 kB, past a pipe's 64 kB
            "simulate wave.qif\nfeasibility\nsweep --t 0.5 0.9 3 --delta 0 1 3 --out late.csv\n")
        env = {key: value for key, value in fresh_env().items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        return subprocess.Popen([sys.executable, "-m", "qif.cli", *argv], cwd=tmp_path, env=env,
                                stdout=stdout, stderr=subprocess.PIPE)

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "wave.qif"],
        ["sweep", "--t", "0.1", "0.9", "100", "--delta", "0", "2", "100", "--out", "/dev/stdout"],
        ["batch", "three.batch"],
    ], ids=["simulate", "sweep", "batch"])
    def test_reader_leaves_after_one_line(self, tmp_path, argv, unbuffered):
        proc = self.start(tmp_path, argv, unbuffered, subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        assert (proc.communicate(timeout=120)[1], proc.returncode) == (self.ERROR, 3)
        assert not (tmp_path / "late.csv").exists()

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["sweep", *"--t 0.5 0.9 3 --delta 0 1 3 --out s.csv".split()],
                                      ["batch", "three.batch"], ["--help"], ["simulate", "-h"]],
                             ids=["sweep", "batch", "help", "simulate_help"])
    def test_reader_gone_before_the_first_write(self, tmp_path, argv, unbuffered):
        # buffered, the write fails only in a flush: main's, or the interpreter's at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.start(tmp_path, argv, unbuffered, write_end)
        finally:
            os.close(write_end)
        # unbuffered, argparse's help write fails at once and argparse ignores the error
        quiet_help = unbuffered and argv[-1] in ("--help", "-h")
        expected = (b"", 0) if quiet_help else (self.ERROR, 3)
        assert (proc.communicate(timeout=120)[1], proc.returncode) == expected
        assert not (tmp_path / "late.csv").exists()


class TestFuzzSimulate:
    """Any circuit text exits 0, 2 or 3; an accepted run keeps its invariants."""

    @staticmethod
    def _check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.qif")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run(["simulate", path])
        assert code in (0, 2, 3)
        program = circuitfile.parse(text) if code == 0 else None
        if program is None or "recombine" not in {ins.name for ins in program}:
            return
        # run it again with a conservation report, selecting a port if it did not
        selects = any(ins.name == "select" for ins in program)
        checked = circuitfile.serialize(program) + ("" if selects else "select port=C\n")
        result = circuitfile.execute(circuitfile.parse(checked + "report conservation\n"),
                                     wp.default_grid())
        assert abs(result.outcome_c.probability + result.outcome_d.probability - 1) <= 1e-9
        assert result.conservation_residual <= 1e-8

    @given(seed=st.integers(0, 2 ** 32 - 1), mutate=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_generated_programs(self, seed, mutate):
        rng = np.random.default_rng(seed)
        text = program_gen.random_program_text(rng)
        if mutate:
            text, _ = program_gen.mutate_program_text(text, rng)
        self._check(text)

    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        self._check(text)


class TestFuzzSweep:
    """Any sweep axes and alpha exit 0 or 3; an accepted surface passes its check."""

    STEPS = [0, 1, 2, 3, 5, 2.5, 1e300, np.nan, np.inf]
    # half the draws are valid step counts and t bounds, so some sweeps are accepted
    steps = st.one_of(st.sampled_from([2, 3, 5]), st.sampled_from(STEPS))
    t_bound = st.one_of(st.floats(0.0, 1.0), st.floats())
    # finite bounds whose span overflows are rare among plain float draws
    delta_bound = st.one_of(st.floats(), st.sampled_from([-1e308, 1e308]))

    @staticmethod
    def _arg(x):
        # a leading space makes argparse read "-1e+308" or "-inf" as a value, not an option
        return f" {x!r}"

    @given(t=st.tuples(t_bound, t_bound, steps),
           delta=st.tuples(delta_bound, delta_bound, steps), alpha=st.floats())
    @settings(max_examples=400, deadline=None)
    def test_sweep_axes(self, t, delta, alpha):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "fuzz.csv")
            argv = ["sweep", "--t", *map(self._arg, t), "--delta", *map(self._arg, delta),
                    "--alpha", self._arg(alpha), "--out", out]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = run(argv)
            assert code in (0, 3)
            assert err.getvalue().count("\n") <= 1
            assert os.path.exists(out) == (code == 0)
            if code == 0:
                rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                assert len(rows) == t[2] * delta[2]
                deltas, residual = rows[:, 1], rows[:, 7]
                limit = mzi.ORACLE_CONSERVATION_TOLERANCE * np.maximum(1.0, np.abs(deltas) / 100)
                assert np.all(np.isfinite(residual))
                assert np.all(residual <= limit)
