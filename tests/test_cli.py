"""Command-line surface: subcommands, exit codes, CSV output."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import program_gen
from qif import analytic, circuitfile, cli, interferometer as mzi, wavepacket as wp

CANONICAL = """\
source width=1 mean=0
bs t=0.85
kick path=B delta=0.2
recombine
select port=C
report moments
"""


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

    def test_grid_env_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "run.qif"
        path.write_text(CANONICAL)
        monkeypatch.setenv("QIF_GRID_N", "512")
        assert run(["simulate", str(path)]) == 0
        assert "port C" in capsys.readouterr().out


class TestSweep:
    def _sweep(self, tmp_path, name, extra=(), t=(0.1, 0.9, 5), delta=(0.1, 1.9, 4)):
        out = tmp_path / name
        argv = ["sweep", "--t", *map(str, t), "--delta", *map(str, delta),
                "--out", str(out), *extra]
        assert run(argv) == 0
        return out.read_text()

    @staticmethod
    def _csv(rows):
        return [cli.CSV_HEADER] + [",".join(format(x, ".17g") for x in row) for row in rows]

    def test_header_and_shape(self, tmp_path, capsys):
        text = self._sweep(tmp_path, "s.csv")
        lines = text.splitlines()
        assert lines[0] == cli.CSV_HEADER
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

    def test_oracle_sweep_ignores_grid_setting(self, tmp_path, capsys, monkeypatch):
        plain = self._sweep(tmp_path, "plain.csv")
        monkeypatch.setenv("QIF_GRID_N", "1000")  # not a power of two
        assert self._sweep(tmp_path, "env.csv") == plain

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


# inputs that once escaped main as a traceback, or were silently ignored or
# wrapped; "{file}" stands for a circuit file holding the case's text
REFUSED = [
    ("bs_t_out_of_range", CANONICAL.replace("t=0.85", "t=1.5"),
     ["simulate", "{file}"], {}, "line 2"),
    ("zero_width", CANONICAL.replace("width=1", "width=0"),
     ["simulate", "{file}"], {}, "line 1"),
    ("bec_t_out_of_range", None,
     ["bec", "--t", "2", "--delta-a", "0", "--delta-b", "0.2"], {}, "transmission"),
    ("zero_substeps", None, ["propagate", "--substeps", "0"], {}, "substeps"),
    ("zero_mass", None, ["propagate", "--mass", "0"], {}, "mass"),
    ("negative_samples", None,
     ["oracle-check", "--samples", "-1", "--seed", "1"], {}, "samples"),
    ("negative_seed", None, ["oracle-check", "--seed", "-1"], {},
     "--seed must be non-negative, got -1"),
    ("feasibility_voltage_nan", None, ["feasibility", "--voltage-mv", "nan"], {}, "voltage_v"),
    ("feasibility_voltage_infinite", None, ["feasibility", "--voltage-mv", "inf"], {},
     "voltage_v must be finite, got inf"),
    ("feasibility_plate_length_infinite", None, ["feasibility", "--plate-len-cm", "inf"], {},
     "plate_length_m must be finite, got inf"),
    ("feasibility_drift_infinite", None, ["feasibility", "--drift-m", "inf"], {},
     "drift_distance_m must be finite, got inf"),
    ("feasibility_slit_infinite", None, ["feasibility", "--slit-um", "inf"], {},
     "slit_width_m must be finite, got inf"),
    # sigma0 squared underflows to 0, so the spread after the drift is infinite
    ("feasibility_slit_underflows", None, ["feasibility", "--slit-um", "1e-300"], {},
     "non-finite beam_width_at_drift = inf"),
    # sigma0 = 5e-324 / 2 rounds to 0: once a ZeroDivisionError
    ("feasibility_slit_subnormal", None, ["feasibility", "--slit-um", "5e-318"], {},
     "non-finite beam_width_at_drift = nan, momentum_width = inf"),
    ("feasibility_energy_underflows", None, ["feasibility", "--energy-kev", "1e-300"], {},
     "non-finite time_of_flight = inf"),
    ("grid_env_not_power_of_two", CANONICAL,
     ["simulate", "{file}"], {"QIF_GRID_N": "1000"}, "power of two"),
    ("grid_env_not_integer", CANONICAL,
     ["simulate", "{file}"], {"QIF_GRID_N": "abc"}, "QIF_GRID_N"),
    ("grid_sweep_env_not_power_of_two", None,
     ["sweep", "--t", "0.1", "0.9", "3", "--delta", "0", "1", "3", "--backend", "grid",
      "--out", "{file}"], {"QIF_GRID_N": "1000"}, "power of two"),
    ("grid_flag_zero", CANONICAL,
     ["simulate", "{file}", "--grid-n", "0"], {}, "power of two"),
    ("kick_wraps_past_grid_edge",
     CANONICAL.replace("mean=0", "mean=9").replace("t=0.85", "t=0.8")
     .replace("delta=0.2", "delta=7.9"),
     ["simulate", "{file}"], {}, "line 3"),
    ("circuit_not_utf8", b"source width=1 mean=0\n\xff\xfe\n",
     ["simulate", "{file}"], {}, "utf-8"),
    ("sweep_t_out_of_range", None,
     ["sweep", "--t", "0.1", "1.5", "3", "--delta", "0", "1", "3", "--out", "{file}"], {},
     "transmission"),
    ("sweep_delta_infinite", None,
     ["sweep", "--t", "0.1", "0.5", "3", "--delta", "0", "inf", "3", "--out", "{file}"], {},
     "--delta HI must be finite, got inf"),
    ("sweep_alpha_nan", None,
     ["sweep", "--t", "0.1", "0.5", "3", "--delta", "0", "1", "3", "--alpha", "nan",
      "--out", "{file}"], {}, "--alpha must be finite, got nan"),
    ("propagate_force_infinite", None, ["propagate", "--force", "inf"], {},
     "force must be finite, got inf"),
    ("propagate_tau_nan", None, ["propagate", "--tau", "nan"], {},
     "duration must be finite and non-negative, got nan"),
    ("source_narrower_than_grid_step", CANONICAL.replace("width=1", "width=0.001"),
     ["simulate", "{file}"], {}, "line 1"),
    # dp < W, but the sampled norm is off by 1e-4: P_C + P_D - 1 = 1.03e-4
    ("circuit_breaks_unitarity",
     CANONICAL.replace("width=1", "width=0.0078125").replace("t=0.85", "t=0.6")
     .replace("delta=0.2", "delta=0.001"),
     ["simulate", "{file}"], {}, "line 4: recombine: unitarity violated"),
    ("propagate_mass_subnormal", None, ["propagate", "--mass", "1e-320"], {}, "mass=1e-320"),
    ("propagate_force_overflows", None, ["propagate", "--force", "1e308"], {},
     "potential phase F z dt/2 overflows at force=1e+308"),
    ("sweep_one_step", None,
     ["sweep", "--t", "0.1", "0.9", "1", "--delta", "0", "1", "3", "--out", "{file}"], {},
     "sweep needs at least 2 steps per axis"),
    ("sweep_fractional_steps", None,
     ["sweep", "--t", "0.1", "0.9", "2.5", "--delta", "0", "1", "2", "--out", "{file}"], {},
     "--t STEPS must be a whole number, got 2.5"),
    ("sweep_too_many_cells", None,
     ["sweep", "--t", "0.1", "0.9", "1e300", "--delta", "0", "1", "2", "--out", "{file}"], {},
     "exceeds MAX_SWEEP_CELLS"),
    # finite bounds whose difference overflows; argparse reads "-1e308" as an option
    ("sweep_delta_span_overflows", None,
     ["sweep", "--t", "0.1", "0.9", "3", "--delta", "-1" + "0" * 308, "1e308", "3",
      "--out", "{file}"], {}, "--delta span HI - LO overflows"),
]


@pytest.mark.parametrize("text, argv, env, fragment",
                         [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_bad_input_refused(tmp_path, capsys, monkeypatch, text, argv, env, fragment):
    path = tmp_path / "case.qif"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = run([arg.replace("{file}", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert fragment in captured.err
    assert captured.err.count("\n") == 1  # the one message, no warnings
    assert captured.out == ""
    assert path.exists() == (text is not None)  # a refused sweep writes no file


COMMANDS = ("simulate", "sweep", "oracle-check", "propagate", "feasibility", "bec")
SWEEP_AXES = ["--t", "0.1", "0.9", "3", "--delta", "0", "1", "3"]
# argv that the parser itself answers, with help text or a usage error
PARSER_ARGV = [
    [], ["-h"], *([command, "-h"] for command in COMMANDS),
    ["frobnicate"], ["simul", "x.qif"],                       # unknown, abbreviated
    ["sweep", *SWEEP_AXES], ["oracle-check"],                 # a required option missing
    ["propagate", "--substeps", "many"],                      # a bad type
    ["sweep", *SWEEP_AXES, "--backend", "fft", "--out", "x.csv"],  # a bad choice
    ["simulate", "x.qif", "--bogus", "1"], ["feasibility", "extra"],  # unrecognized
]


def _parser_exit(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


class TestParserText:
    """A call builds the parser for its own subcommand; what it prints is the full parser's."""

    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        expected = _parser_exit(cli.build_parser().parse_args, argv)
        assert expected[2] in (0, 2)
        assert _parser_exit(run, argv) == expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_lone_subcommand_keeps_the_full_usage(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.build_parser(command).format_usage() == cli.build_parser().format_usage()

    def test_lone_subcommand_registers_only_itself(self):
        assert _parser_exit(cli.build_parser("bec").parse_args, ["simulate", "x.qif"])[2] == 2

    def test_each_call_builds_its_own_parser(self, monkeypatch, capsys):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda *command: built.append(real(*command)) or built[-1])
        assert run(["feasibility"]) == run(["feasibility"]) == 0
        assert len(built) == 2 and built[0] is not built[1]


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
        if program is None or "recombine" not in {ins.name for ins in program.instructions}:
            return
        # run it again with a conservation report, selecting a port if it did not
        selects = any(ins.name == "select" for ins in program.instructions)
        checked = circuitfile.serialize(program) + ("" if selects else "select port=C\n")
        result = circuitfile.execute(circuitfile.parse(checked + "report conservation\n"))
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
