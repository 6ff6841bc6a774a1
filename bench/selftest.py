"""Self-test of the benchmark's generator and checker.

    python3 bench/selftest.py

The same seed must give identical inputs, and the checker must count a
deliberately corrupted output as a failure.  The corrupted outputs start
from real outputs of the program under ``src/``.
"""

import re
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

from check import Outcome, check
from run import SRC, WORK, run_call
from workloads import KNOWN_DEFECT_KINDS, ONESHOT_MIX, WORKLOADS, generate

sys.path.insert(0, str(SRC))
from qif import cli  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(generate(workload, 7), generate(workload, 7))

    def test_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            self.assertNotEqual(generate(workload, 7)[0], generate(workload, 8)[0])

    def test_oneshot_mix_is_fixed(self):
        calls, files = generate("oneshot", 3)
        counts = {}
        for call in calls:
            counts[call.kind] = counts.get(call.kind, 0) + 1
        self.assertEqual(counts, dict(ONESHOT_MIX))
        self.assertEqual(len(files), sum(1 for c in calls if c.argv[0] == "simulate"))


class CheckerTest(unittest.TestCase):
    """Real outputs pass; the same outputs with one defect fail."""

    @classmethod
    def setUpClass(cls):
        WORK.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=WORK)
        cls.dir = Path(cls.tmp.name)
        cls.calls = {}
        for workload in WORKLOADS:
            calls, files = generate(workload, 11)
            for name, text in files.items():
                (cls.dir / name).write_text(text, encoding="utf-8")
            for call in calls:
                cls.calls.setdefault(call.kind, call)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_kind(self, kind):
        call = self.calls[kind]
        argv = [a.replace("{dir}", str(self.dir)) for a in call.argv]
        csv = self.dir / call.expect["out"] if "out" in call.expect else None
        outcome, _ = run_call(cli, argv, csv)
        return call, outcome

    def assertFails(self, call, outcome):
        self.assertIsNotNone(check(call, outcome), outcome)

    def test_valid_outputs_pass(self):
        for kind in self.calls:
            if kind not in KNOWN_DEFECT_KINDS:
                call, outcome = self.run_kind(kind)
                self.assertIsNone(check(call, outcome), (kind, outcome))

    def test_flipped_mean_fails(self):
        call, outcome = self.run_kind("simulate")
        flipped = re.sub(r"<p> = (-?)", lambda m: "<p> = " + ("" if m.group(1) else "-"),
                         outcome.out)
        self.assertNotEqual(flipped, outcome.out)
        self.assertFails(call, replace(outcome, out=flipped))

    def test_wrong_exit_code_fails(self):
        for kind, code in (("simulate", 3), ("parse_error", 3), ("alias", 0)):
            call, outcome = self.run_kind(kind)
            self.assertFails(call, replace(outcome, code=code))

    def test_uncaught_exception_fails(self):
        call, outcome = self.run_kind("propagate")
        self.assertFails(call, replace(outcome, exc="ValueError: boom"))

    def test_corrupted_csv_fails(self):
        call, outcome = self.run_kind("sweep_oracle")
        lines = outcome.csv.split(b"\n")
        fields = lines[5].split(b",")
        fields[4] = b"-" + fields[4] if not fields[4].startswith(b"-") else fields[4][1:]
        bad = b"\n".join(lines[:5] + [b",".join(fields)] + lines[6:])
        self.assertFails(call, replace(outcome, csv=bad))
        swapped = b"\n".join([lines[0], lines[2], lines[1]] + lines[3:])
        self.assertFails(call, replace(outcome, csv=swapped))
        self.assertFails(call, replace(outcome, csv=b"\n".join(lines[:-2] + [b""])))

    def test_bec_difference_fails(self):
        call, outcome = self.run_kind("bec")
        bad = re.sub(r"C\| = \S+", "C| = 1.000e-11", outcome.out)
        self.assertFails(call, replace(outcome, out=bad))

    def test_propagate_shift_fails(self):
        call, outcome = self.run_kind("propagate")
        bad = re.sub(r"measured mean shift = (\S+)",
                     lambda m: f"measured mean shift = {float(m.group(1)) + 1e-8:.12g}",
                     outcome.out)
        self.assertFails(call, replace(outcome, out=bad))

    def test_known_defect_probes(self):
        # a refusal with a documented code passes; a traceback or a wrong
        # answer fails, whichever the program under test gives today
        refused = Outcome(3, "", "f.qif: line 4: kick: refused\n")
        for kind in sorted(KNOWN_DEFECT_KINDS):
            call = self.calls[kind]
            self.assertIsNone(check(call, refused), kind)
            self.assertFails(call, Outcome(None, "", "", "ValueError: out of range"))
        call = self.calls["wrap_corner"]
        self.assertFails(call, Outcome(0, "port C: P = 0.5, <p> = -6.66\n"
                                          "conservation residual = 21.6\n", ""))


if __name__ == "__main__":
    unittest.main()
