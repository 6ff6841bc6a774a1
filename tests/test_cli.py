"""Command-line surface: subcommands, exit codes, CSV output."""

import numpy as np
import pytest

from qif import analytic, cli, interferometer as mzi, wavepacket as wp

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
        fmt = lambda x: format(np.nan if x is None else x, ".17g")
        return [cli.CSV_HEADER] + [",".join(map(fmt, row)) for row in rows]

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

    def test_oracle_rows_equal_closed_form_stats(self, tmp_path, capsys):
        t_dark = 0.7071067811865476  # balanced splitter: port C is dark at delta = 0
        text = self._sweep(tmp_path, "s.csv", t=(0.5, t_dark, 3), delta=(0.0, 1.0, 3))
        rows = []
        for t in np.linspace(0.5, t_dark, 3):
            for d in np.linspace(0.0, 1.0, 3):
                s = analytic.closed_form_stats(t, d, 0.0)
                residual = abs(s.p_c * (s.mean_c or 0.0) + s.p_d * (s.mean_d or 0.0)
                               - (1.0 - t * t) * d)
                rows.append((t, d, 0.0, s.p_c, s.mean_c, s.p_d, s.mean_d, residual))
        assert rows[-3][4] is None
        assert text.splitlines() == self._csv(rows)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_grid_rows_equal_run_mzi(self, tmp_path, capsys, alpha):
        t_dark = 0.7071067811865476
        text = self._sweep(tmp_path, "g.csv", t=(0.5, t_dark, 3), delta=(0.0, 1.5, 3),
                           extra=["--backend", "grid", "--alpha", str(alpha)])
        gauss = wp.gaussian_init(wp.GaussianParams(), wp.default_grid())
        rows = []
        for t in np.linspace(0.5, t_dark, 3):
            for d in np.linspace(0.0, 1.5, 3):
                out_c, out_d = mzi.run_mzi(gauss, t, d, alpha)
                residual = mzi.conservation_residual(out_c, out_d, t, d, 0.0)
                rows.append((t, d, alpha, out_c.probability, out_c.mean_p,
                             out_d.probability, out_d.mean_p, residual))
        assert (rows[-3][4] is None) == (alpha == 0.0)
        assert text.splitlines() == self._csv(rows)

    def test_refused_sweep_leaves_out_unchanged(self, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_text("earlier results\n")
        argv = ["sweep", "--t", "0.1", "1.5", "3", "--delta", "0.1", "1.9", "3",
                "--out", str(out)]
        assert run(argv) == 3
        assert "transmission" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

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
    ("grid_env_not_power_of_two", CANONICAL,
     ["simulate", "{file}"], {"QIF_GRID_N": "1000"}, "power of two"),
    ("grid_env_not_integer", CANONICAL,
     ["simulate", "{file}"], {"QIF_GRID_N": "abc"}, "QIF_GRID_N"),
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
    assert captured.out == ""
