"""qif benchmark: one client driving ``qif.cli.main`` in a closed loop.

    python3 bench/run.py --workload oneshot --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program under test is the
``src/qif`` package next to this directory.  A run generates the workload's
inputs from ``--seed``, runs one checked pass (which is also the warm-up),
then repeats whole passes for ``--seconds`` and compares every output with
the checked pass.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the timed passes with spans around each module's
public functions and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are for people.

Timings are scaled to a reference machine speed by the interleaved
calibration kernel in ``calib.py``.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from calib import CAL_REF_S, Calibration, clock
from check import GRID_N, Outcome, check
from spans import NAMES, MODULES, Tracer
from workloads import KNOWN_DEFECT_KINDS, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_REPS = 9
#: Tail percentiles, highest first; with under 20 inputs the tail is the slowest.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Runs in a fresh interpreter: the import time of qif.cli, and the
#: calibration kernel in the same process to scale it.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import qif.cli
t1 = time.perf_counter()
import statistics, calib
print(t1 - t0, statistics.median(calib.kernel()[0] for _ in range(5)))
"""


def run_call(cli, argv, csv_path):
    """Call ``cli.main`` as a fresh ``qif`` process would; returns (Outcome, times)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with redirect_stdout(out), redirect_stderr(err):
        t0, c0 = clock(), time.process_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # the checker reports it as a failed call
            exc = f"{type(e).__name__}: {e}"
        t1, c1 = clock(), time.process_time()
    csv = None
    if csv_path is not None and csv_path.exists():
        csv = csv_path.read_bytes()
        csv_path.unlink()
    return Outcome(code, out.getvalue(), err.getvalue(), exc, csv), (t0, t1, c0, c1)


def _fingerprint(outcome):
    """The outcome with a CSV replaced by its SHA-256, for comparing passes."""
    if outcome.csv is None:
        return outcome
    return replace(outcome, csv=hashlib.sha256(outcome.csv).hexdigest())


class Workload:
    """The calls of one pass, their reference outputs and failures."""

    def __init__(self, name, seed, workdir):
        self.calls, files = generate(name, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        for fname, text in files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        self.argv = [tuple(a.replace("{dir}", str(workdir)) for a in c.argv) for c in self.calls]
        self.csv = [workdir / c.expect["out"] if "out" in c.expect else None for c in self.calls]
        self.reference = []
        self.failures = {}

    def run_pass(self, cli, cal, tracer=None, first_call=0):
        times = []
        for i, argv in enumerate(self.argv):
            if cal.due():
                cal.sample()
            if tracer is not None:
                tracer.call_index = first_call + i
            outcome, t = run_call(cli, argv, self.csv[i])
            times.append(t)
            if len(self.reference) <= i:
                reason = check(self.calls[i], outcome)
                if reason:
                    self.failures[i] = reason
                self.reference.append(_fingerprint(outcome))
            elif _fingerprint(outcome) != self.reference[i] and i not in self.failures:
                self.failures[i] = "output differs from the checked pass"
        return times

    def timed_passes(self, cli, cal, seconds, tracer=None):
        passes = []
        start = clock()
        while len(passes) < MIN_PASSES or clock() - start < seconds:
            passes.append(self.run_pass(cli, cal, tracer, len(passes) * len(self.argv)))
        cal.sample()
        return passes


def summarize(passes, cal):
    """End-to-end timings of whole passes, each interval scaled by calibration.

    An input's time is its median over passes, so a stall of the shared
    machine during one call does not count; the percentiles are taken over
    inputs.
    """
    scaled = [[((t1 - t0) * f, (c1 - c0) * f)
               for t0, t1, c0, c1 in times for f in (cal.factor(t0, t1),)]
              for times in passes]
    per_input = [(statistics.median(p[i][0] for p in scaled),
                  statistics.median(p[i][1] for p in scaled)) for i in range(len(scaled[0]))]
    walls = sorted(w for w, _ in per_input)
    n = len(walls)
    pct = next((p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10), 100.0)
    return {"run_s": sum(walls), "cpu_s": sum(c for _, c in per_input),
            "call_p50_ms": statistics.median(walls) * 1e3,
            "call_tail_ms": walls[math.ceil(pct / 100 * n) - 1] * 1e3,
            "tail_pct": pct, "inputs": n, "passes": len(passes), "wall_sum": sum(w for p in scaled for w, _ in p)}


def measure_setup():
    """Median scaled time for a fresh interpreter to import qif.cli."""
    path = [str(SRC), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    values = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                             timeout=60, capture_output=True, text=True).stdout
        seconds, kernel_s = map(float, out.split())
        values.append(seconds * CAL_REF_S / kernel_s)
    return statistics.median(values)


def environment(cal):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "floor_fft_us": {str(GRID_N): cal.fft_floor_s(scaled=False) * 1e6},
            "calibration_ref_ms": CAL_REF_S * 1e3,
            "calibration_median_ms": statistics.median(cal.kernel) * 1e3}


def layer_metrics(tracer, traced, untraced, cal):
    n_passes = len(traced)
    factors = [cal.factor(t0, t1) for times in traced for t0, t1, _, _ in times]
    agg = tracer.aggregate(lambda call: factors[call])
    m = {}
    for name in NAMES:
        calls, total, own = agg[name]
        m[f"{name}.calls"] = (calls / n_passes, "count")
        m[f"{name}.s"] = (total / n_passes, "s")
        m[f"{name}.self_s"] = (own / n_passes, "s")
    for module in MODULES:
        m[f"{module}.errors"] = (tracer.errors[module] / n_passes, "count")
    floor = cal.fft_floor_s(scaled=True)
    shift_calls, shift_s, _ = agg["wavepacket.shift"]
    substep = agg["splitstep.apply_impulse"][1] / tracer.substeps if tracer.substeps else 0.0
    traced_sum = summarize(traced, cal)
    m["floor.fft_us"] = (floor * 1e6, "us")
    m["wavepacket.shift.floor_ratio"] = (shift_s / shift_calls / floor if shift_calls else 0.0,
                                         "ratio")
    m["splitstep.substep_us"] = (substep * 1e6, "us")
    m["splitstep.substep.floor_ratio"] = (substep / floor, "ratio")
    m["interferometer.dark_ports"] = (tracer.dark_ports / n_passes, "count")
    m["trace.overhead_frac"] = (traced_sum["run_s"] / untraced["run_s"] - 1.0, "fraction")
    m["trace.unaccounted_s"] = ((traced_sum["wall_sum"] - agg["cli.main"][1]) / n_passes, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qif" / "cli.py").is_file():
        print(f"error: no qif sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QIF_GRID_N", None)  # every workload runs on the default grid
    from qif import cli
    from qif.errors import QifError
    if Path(cli.__file__).resolve().parent != SRC / "qif":
        print(f"error: imported qif from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cal = Calibration()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup()
        wl = Workload(args.workload, args.seed, workdir)
        wl.run_pass(cli, cal)
        untraced = summarize(wl.timed_passes(cli, cal, args.seconds), cal)
        if args.trace:
            tracer = Tracer(QifError)
            tracer.install()
            try:
                traced = wl.timed_passes(cli, cal, args.seconds, tracer)
            finally:
                tracer.remove()
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            metrics = layer_metrics(tracer, traced, untraced, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_kinds = {wl.calls[i].kind for i in wl.failures}
    attempted, failed = len(wl.calls), len(wl.failures)
    print("env " + json.dumps(environment(cal)))
    print(f"workload {args.workload} seed {args.seed}: {attempted} calls per pass, "
          f"{untraced['passes']} timed passes")
    for i in sorted(wl.failures)[:12]:
        print(f"  fail #{i} {wl.calls[i].kind}: {wl.failures[i]}")
    for i, outcome in enumerate(wl.reference):
        if outcome.csv is not None:
            print(f"  csv {wl.calls[i].expect['out']} sha256 {outcome.csv}")
    if not args.trace:
        metrics = {"run_s": (untraced["run_s"], "s"), "cpu_s": (untraced["cpu_s"], "s"),
                   "call_p50_ms": (untraced["call_p50_ms"], "ms"),
                   "call_tail_ms": (untraced["call_tail_ms"], "ms"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                   "setup_s": (setup_s, "s")}
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "call_tail_ms":
            note = f"  (p{untraced['tail_pct']:g} of {untraced['inputs']} inputs)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    known = sum(1 for i in wl.failures if wl.calls[i].kind in KNOWN_DEFECT_KINDS)
    print(f"  failed_frac = {failed / attempted:.6g} fraction  "
          f"({failed} of {attempted} inputs; {known} are known-defect probes)")
    print(json.dumps({
        "correct": failed_kinds <= KNOWN_DEFECT_KINDS,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
