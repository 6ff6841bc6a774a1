"""Digest every output of the benchmark workloads, one line per call, to compare two checkouts.

    python3 tools/outputs_digest.py CHECKOUT OUT.json [--seeds 7 1234]
    cmp parent.json change.json

Runs one pass of each workload in CHECKOUT/bench/workloads.py at each seed
through bench/run.py's ``run_call``, against the qif package in CHECKOUT/src,
and writes OUT.json: a JSON list with one line per call.  A line holds the
call's workload, seed, index, kind and argv, its exit code, and the SHA-256
of its stdout, stderr, escaped exception and CSV (null where there is none).

The inputs of every checkout are written to one work directory, WORKDIR,
whose path does not depend on the checkout: the paths in argv, in ``wrote``
lines and in a circuit's error prefix then read the same for both.  So run
the tool for one checkout at a time.  It writes no bytecode, and nothing
under bench/ or src/.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

WORKDIR = Path(tempfile.gettempdir()) / "qif-outputs-digest"


def _sha256(data):
    if data is None:
        return None
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def digest_lines(checkout: Path, seeds):
    """One JSON line per call of every workload at every seed, run against checkout."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    os.environ.pop("QIF_GRID_N", None)  # as bench/run.py: every workload on the default grid
    from qif import cli
    import run as bench_run
    from workloads import WORKLOADS
    if Path(cli.__file__).resolve().parent != checkout / "src" / "qif":
        raise SystemExit(f"error: imported qif from {cli.__file__}, not {checkout / 'src'}")
    lines = []
    try:
        for workload in WORKLOADS:
            for seed in seeds:
                shutil.rmtree(WORKDIR, ignore_errors=True)
                wl = bench_run.Workload(workload, seed, WORKDIR)
                for i, (call, argv, csv_path) in enumerate(zip(wl.calls, wl.argv, wl.csv)):
                    outcome, _ = bench_run.run_call(cli, argv, csv_path)
                    lines.append(json.dumps({
                        "workload": workload, "seed": seed, "call": i, "kind": call.kind,
                        "argv": list(argv), "code": outcome.code,
                        "stdout": _sha256(outcome.out), "stderr": _sha256(outcome.err),
                        "exc": _sha256(outcome.exc), "csv": _sha256(outcome.csv)}))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, help="a source checkout with src/qif and bench/")
    ap.add_argument("out", type=Path, help="the digest file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1234])
    args = ap.parse_args(argv)
    lines = digest_lines(args.checkout.resolve(), args.seeds)
    args.out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"{len(lines)} calls of {args.checkout} digested into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
