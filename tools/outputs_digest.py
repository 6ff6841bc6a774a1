"""Digest every output of the benchmark workloads, one line per call, to compare two checkouts.

    python3 tools/outputs_digest.py CHECKOUT OUT.json [--seeds 7 1234]
    python3 tools/outputs_digest.py --compare OLD.json NEW.json

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

``--compare OLD.json NEW.json`` runs nothing: it prints each call whose line
differs between two digest files (workload, seed, index, kind and argv, then
the fields that changed), and a count.  It exits 1 if any call differs, else 0.
"""

import argparse
import hashlib
import json
import os
import shlex
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


#: What a digest line records of a call, beyond its key (workload, seed, call).
FIELDS = ("kind", "argv", "code", "stdout", "stderr", "exc", "csv")


def compare(old_path: Path, new_path: Path) -> int:
    """Print each call whose digest line differs between two files, then the count: 1 if any."""
    old, new = ({(line["workload"], line["seed"], line["call"]): line
                 for line in json.loads(path.read_text(encoding="utf-8"))}
                for path in (old_path, new_path))
    keys = list(old) + [key for key in new if key not in old]
    differ = 0
    for key in keys:
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            changed = [f"only in {new_path if a is None else old_path}"]
        else:
            changed = [field for field in FIELDS if a[field] != b[field]]
        if changed:
            differ += 1
            line = a or b
            print(f"{key[0]} seed {key[1]} call {key[2]} {line['kind']}: {', '.join(changed)}")
            print(f"    {shlex.join(line['argv'])}")
    print(f"{differ} of {len(keys)} calls differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, nargs="?",
                    help="a source checkout with src/qif and bench/")
    ap.add_argument("out", type=Path, nargs="?", help="the digest file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1234])
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OLD.json", "NEW.json"),
                    help="compare two digest files instead of writing one")
    args = ap.parse_args(argv)
    if args.compare:
        if args.checkout is not None:
            ap.error("--compare takes no CHECKOUT or OUT")
        return compare(*args.compare)
    if args.out is None:
        ap.error("need CHECKOUT and OUT.json, or --compare OLD.json NEW.json")
    lines = digest_lines(args.checkout.resolve(), args.seeds)
    args.out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"{len(lines)} calls of {args.checkout} digested into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
