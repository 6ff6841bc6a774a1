"""The benchmark's traced functions must exist in the package and keep their conventions.

bench/spans.py wraps each name in its NAMES with getattr; a rename or a
deletion there would otherwise surface only as a crash of ``--trace 1``.
Beyond callability, its wrapper reads ``is_dark`` from what ``port_stats``
returns and ``substeps`` from ``apply_impulse``'s second positional argument.
The benchmark's own self-test runs here too, and one pass of every workload
through its checker, so that a change to the package that breaks its
generator or checker, or that a workload call would fail on, fails these tests.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from qif import cli
from qif.errors import QifError

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
#: One pass of every workload at seed 3, each call run and judged as bench/run.py does;
#: argv[1] is an empty directory for the pass's input files and CSVs.
CHECKED_PASS = """
import sys
from pathlib import Path
from check import check
from run import SRC, run_call
from workloads import WORKLOADS, generate
sys.path.insert(0, str(SRC))
from qif import cli
checked, failures = 0, []
for workload in WORKLOADS:
    work = Path(sys.argv[1]) / workload
    work.mkdir()
    calls, files = generate(workload, 3)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    for call in calls:
        argv = [a.replace("{dir}", str(work)) for a in call.argv]
        csv = work / call.expect["out"] if "out" in call.expect else None
        reason = check(call, run_call(cli, argv, csv)[0])
        checked += 1
        if reason is not None:
            failures.append(f"{workload} {call.kind}: {reason}")
print(*failures, f"checked {checked} calls", sep="\\n")
sys.exit(1 if failures else 0)
"""


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_is_callable():
    spans = _spans()
    assert spans.NAMES
    for name in spans.NAMES:
        module, func = name.split(".")
        target = getattr(importlib.import_module("qif." + module), func, None)
        assert callable(target), name


def test_importing_cli_loads_every_traced_module():
    # Tracer.install looks each module up in sys.modules after the benchmark imports
    # qif.cli alone; a fresh interpreter shows what that import loads
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import qif.cli; "
            "print(*sorted(sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    missing = [m for m in _spans().MODULES if "qif." + m not in loaded]
    assert not missing


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "selftest.py"], cwd=ROOT / "bench",
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_every_workload_call_passes_the_benchmark_checker(tmp_path):
    # the known-defect probes are among the calls: one that stops refusing fails here
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", CHECKED_PASS, str(tmp_path)],
                          cwd=ROOT / "bench", env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("checked ") and done.stdout.split()[1] != "0"


def test_traced_run_reads_dark_ports_and_substeps(tmp_path, capsys):
    # t = r at delta = 0: port C is dark, port D is not
    circuit = tmp_path / "dark.qif"
    circuit.write_text("source width=1 mean=0\nbs t=0.7071067811865476\nrecombine\n"
                       "select port=D\nreport moments\n")
    tracer = _spans().Tracer(QifError)
    tracer.install()
    try:
        assert cli.main(["simulate", str(circuit)]) == 0
        assert cli.main(["propagate", "--substeps", "3"]) == 0
    finally:
        tracer.remove()
    assert tracer.dark_ports == 1
    assert tracer.substeps == 3
