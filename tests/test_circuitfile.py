"""Circuit-description language: parsing, round trip, execution."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import program_gen
from qif import circuitfile as cf
from qif import interferometer as mzi
from qif import wavepacket as wp
from qif.errors import CircuitRuntimeError

CANONICAL = """\
source width=1 mean=0
bs t=0.85
kick path=B delta=0.2
phase path=B alpha=0
recombine
select port=C
report moments
"""


class TestParse:
    def test_canonical_program(self):
        program = cf.parse(CANONICAL)
        assert len(program.instructions) == 7
        assert [i.name for i in program.instructions] == [
            "source", "bs", "kick", "phase", "recombine", "select", "report",
        ]
        assert program.instructions[1].args == {"t": 0.85}
        assert program.instructions[6].args == {"kind": "moments"}

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nsource width=1 mean=0  # trailing\n\nbs t=0.5\n"
        program = cf.parse(text)
        assert [i.name for i in program.instructions] == ["source", "bs"]
        assert program.instructions[1].line == 5

    def test_missing_source(self):
        with pytest.raises(cf.ParseError) as err:
            cf.parse("bs t=0.85")
        assert err.value.line == 1
        assert "missing source" in err.value.message

    def test_bad_path_token(self):
        with pytest.raises(cf.ParseError) as err:
            cf.parse("source width=1 mean=0\nkick path=Q delta=0.2")
        assert err.value.line == 2
        assert err.value.token == "Q"
        assert "path must be A or B" in err.value.message
        # column points at the value token
        assert err.value.column == len("kick ") + len("path=") + 1

    @pytest.mark.parametrize("line,fragment", [
        ("warp factor=9", "unknown instruction"),
        ("bs t=0.5 t=0.6", "duplicate key"),
        ("bs q=0.5", "unknown key"),
        ("bs t=abc", "malformed number"),
        ("bs t=1e999", "out of range"),
        ("bs", "missing key"),
        ("select port=E", "port must be C or D"),
        ("report nonsense", "report kind"),
        ("report", "exactly one"),
        ("bs t=1.5", "transmission must lie in [0, 1], got 1.5"),
        ("source width=0 mean=0", "width must be positive, got 0.0"),
    ])
    def test_line_errors(self, line, fragment):
        with pytest.raises(cf.ParseError) as err:
            cf.parse(f"source width=1 mean=0\n{line}")
        assert err.value.line == 2
        assert fragment in err.value.message
        # column points at the offending token: 6 for bs t=1.5, 14 for width=0
        assert err.value.column == line.index(err.value.token) + 1

    @pytest.mark.parametrize("text,line,fragment", [
        ("source width=1 mean=0\nkick path=B delta=0.1", 2, "requires bs"),
        ("source width=1 mean=0\nbs t=0.5\nselect port=C", 3, "requires recombine"),
        ("source width=1 mean=0\nbs t=0.5\nrecombine\nreport moments", 4, "requires select"),
        ("source width=1 mean=0\nsource width=2 mean=0", 2, "duplicate source"),
        ("source width=1 mean=0\nbs t=0.5\nrecombine\nkick path=B delta=0.1", 4,
         "out of order"),
        ("source width=1 mean=0\nbs t=0.5\nbs t=0.4", 3, "duplicate bs"),
    ])
    def test_ordering_errors(self, text, line, fragment):
        with pytest.raises(cf.ParseError) as err:
            cf.parse(text)
        assert err.value.line == line
        assert fragment in err.value.message


# The ordering rules written out as a table of their own: each instruction's
# stage, the ones allowed once, and what each needs earlier in the program.
STAGE = {"source": 0, "bs": 1, "kick": 2, "phase": 2, "recombine": 3, "select": 4, "report": 5}
ONCE = ("source", "bs", "recombine", "select")
REQUIRES = {"kick": "bs", "phase": "bs", "recombine": "bs", "select": "recombine",
            "report": "select"}
ONE_LINE = {"source": "source width=1 mean=0", "bs": "bs t=0.85", "kick": "kick path=B delta=0.2",
            "phase": "phase path=A alpha=0.5", "recombine": "recombine",
            "select": "select port=C", "report": "report moments"}


def written_rules_error(names):
    """(message, line) of the first rule the sequence breaks, or None."""
    if not names or names[0] != "source":
        return "missing source", 1
    seen, stage = set(), 0
    for line, name in enumerate(names, start=1):
        if name in ONCE and name in seen:
            return f"duplicate {name}", line
        seen.add(name)
        if STAGE[name] < stage:
            return f"{name} out of order", line
        stage = STAGE[name]
        if name in REQUIRES and REQUIRES[name] not in seen:
            return f"{name} requires {REQUIRES[name]} first", line
    return None


class TestOrderingRules:
    def test_every_short_sequence_follows_the_written_rules(self):
        # every sequence of up to 4 instructions: 2,801 programs
        for n in range(5):
            for names in itertools.product(STAGE, repeat=n):
                text = "".join(ONE_LINE[name] + "\n" for name in names)
                want = written_rules_error(names)
                if want is None:
                    program = cf.parse(text)
                    assert [ins.name for ins in program.instructions] == list(names)
                    continue
                with pytest.raises(cf.ParseError) as err:
                    cf.parse(text)
                assert (err.value.message, err.value.line) == want, names


class TestSerialize:
    def test_canonical_round_trip(self):
        program = cf.parse(CANONICAL)
        assert cf.parse(cf.serialize(program)) == program

    def test_comments_dropped(self):
        text = "source width=1 mean=0 # prepared state\nbs t=0.5\n"
        serialized = cf.serialize(cf.parse(text))
        assert "#" not in serialized
        assert cf.parse(serialized) == cf.parse(text)

    def test_random_programs_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            program_gen.assert_roundtrip(program_gen.random_program_text(rng))

    @given(
        t=st.floats(0, 1), delta=st.floats(-2, 2),
        alpha=st.floats(allow_nan=False, allow_infinity=False, width=32),
        width=st.floats(0.1, 5), mean=st.floats(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_numeric_fidelity(self, t, delta, alpha, width, mean):
        text = (
            f"source width={width!r} mean={mean!r}\n"
            f"bs t={t!r}\n"
            f"kick path=B delta={delta!r}\n"
            f"phase path=A alpha={alpha!r}\n"
        )
        program = program_gen.assert_roundtrip(text)
        assert program.instructions[1].args["t"] == t


class TestMutations:
    def test_single_mutations_give_line_accurate_errors(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            valid = program_gen.random_program_text(rng)
            mutated, expected_line = program_gen.mutate_program_text(valid, rng)
            with pytest.raises(cf.ParseError) as err:
                cf.parse(mutated)
            assert err.value.line == expected_line, mutated

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            cf.parse(text)
        except cf.ParseError:
            pass  # the only acceptable failure mode


class TestExecute:
    def test_canonical_statistics(self, grid):
        result = cf.execute(cf.parse(CANONICAL), grid)
        assert result.selected.port == "C"
        assert result.selected.probability == pytest.approx(0.05669005452584719, abs=1e-9)
        assert result.selected.mean_p == pytest.approx(-0.2924850696669441, abs=1e-9)
        assert "port C" in result.report

    def test_zero_kick_mean(self, grid):
        text = CANONICAL.replace("delta=0.2", "delta=0")
        result = cf.execute(cf.parse(text), grid)
        assert result.selected.mean_p == pytest.approx(0.0, abs=1e-9)

    def test_pi_phase_swaps_ports(self, grid):
        at_zero = cf.execute(cf.parse(CANONICAL.replace("port=C", "port=D")), grid)
        swapped = cf.execute(
            cf.parse(CANONICAL.replace("alpha=0", "alpha=3.14159265")), grid
        )
        assert swapped.selected.probability == pytest.approx(
            at_zero.selected.probability, abs=1e-6
        )
        assert swapped.selected.mean_p == pytest.approx(at_zero.selected.mean_p, abs=1e-6)

    def test_conservation_report(self, grid):
        text = CANONICAL + "report conservation\n"
        result = cf.execute(cf.parse(text), grid)
        assert result.conservation_residual <= 1e-8
        assert "conservation residual" in result.report

    def test_kick_on_path_a(self, grid):
        text = (
            "source width=1 mean=0\nbs t=0.85\nkick path=A delta=-0.2\n"
            "recombine\nselect port=C\nreport moments\nreport conservation\n"
        )
        result = cf.execute(cf.parse(text), grid)
        assert result.conservation_residual <= 1e-8

    def test_deterministic(self, grid):
        a = cf.execute(cf.parse(CANONICAL), grid)
        b = cf.execute(cf.parse(CANONICAL), grid)
        assert a.report == b.report
        np.testing.assert_array_equal(
            a.selected.wavefunction.amplitudes, b.selected.wavefunction.amplitudes
        )

    def test_runtime_error_carries_line(self, grid):
        text = CANONICAL.replace("delta=0.2", "delta=12")  # beyond aliasing guard
        with pytest.raises(CircuitRuntimeError) as err:
            cf.execute(cf.parse(text), grid)
        assert err.value.line == 3

    def test_dark_port_moments(self, grid):
        # a balanced splitter and no relative kick: port C holds rounding noise
        text = ("source width=1 mean=0\nbs t=0.7071067811865476\nkick path=B delta=0\n"
                "recombine\nselect port=C\nreport moments\n")
        result = cf.execute(cf.parse(text), grid)
        assert result.selected.is_dark
        assert result.selected.probability < wp.DARK_THRESHOLD
        assert result.lines == [f"port C: P = {result.selected.probability:.12g}, "
                                "<p> undefined (dark port)"]

    def test_wavefunction_report(self):
        small = wp.default_grid(64)
        text = CANONICAL + "report wavefunction\n"
        result = cf.execute(cf.parse(text), small)
        # header plus one line per node
        wf_lines = [l for l in result.lines if l[0] in "+-0123456789"]
        assert len(wf_lines) == 64

    def test_reference_circuit_equals_run_mzi(self, grid, gauss):
        # the circuit and run_mzi apply the same kick and phase primitives,
        # so both port wavefunctions agree bit for bit
        path = Path(__file__).parent.parent / "circuits" / "anomalous_kick.qif"
        result = cf.execute(cf.parse(path.read_text()), grid)
        out_c, out_d = mzi.run_mzi(gauss, 0.85, 0.2)
        assert np.array_equal(result.outcome_c.wavefunction.amplitudes,
                              out_c.wavefunction.amplitudes)
        assert np.array_equal(result.outcome_d.wavefunction.amplitudes,
                              out_d.wavefunction.amplitudes)
