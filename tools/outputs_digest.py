"""Digest every output of the benchmark workloads, one line per call, to compare two checkouts.

    python3 tools/outputs_digest.py CHECKOUT OUT.json [--seeds 7 1234] [--compact]
    python3 tools/outputs_digest.py --compare OLD.json NEW.json

Runs one pass of each workload in CHECKOUT/bench/workloads.py at each seed
through bench/run.py's ``run_call``, against the qif package in CHECKOUT/src,
and writes OUT.json: a JSON list with one line per call.  A line holds the
call's workload, seed, index, kind and argv, its exit code, and the SHA-256
of its stdout, stderr, escaped exception and CSV (null where there is none).

Each workload's inputs are written to a private directory made by
``tempfile.mkdtemp`` and removed after its calls.  argv is recorded with the
``{dir}`` token bench/workloads.py writes for that directory, and before
hashing, its path in stdout, stderr and the exception is replaced by
``{dir}`` too: a ``wrote`` line or a circuit's error prefix then reads the
same for any checkout, any ``TMPDIR`` and any run, and two runs at once share
no files.  The tool writes no bytecode, and nothing under bench/ or src/.

``--compact`` writes a text file instead, with one line per call: its
workload, seed, index, kind and exit code, and one 16-hex-digit hash over the
four output digests.  Its ``# `` header names numpy's version and the SIMD
targets numpy runs (``fingerprint``), on which the last bits of the outputs
depend.
tests/outputs_digest_seed7.txt is such a file, for seed 7.

``--compare OLD.json NEW.json`` runs nothing: it prints each call whose line
differs between two digest files (workload, seed, index, kind and argv, then
the fields that changed), and a count.  It exits 1 if any call differs, else 0.
Either file may be compact; then a call's kind, code and output hash are compared.
"""

import argparse
import hashlib
import json
import shlex
import shutil
import sys
import tempfile
from pathlib import Path


def _sha256(data):
    if data is None:
        return None
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def digest_lines(checkout: Path, seeds):
    """One JSON line per call of every workload at every seed, run against checkout."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from qif import cli
    import run as bench_run
    from workloads import WORKLOADS
    if Path(cli.__file__).resolve().parent != checkout / "src" / "qif":
        raise SystemExit(f"error: imported qif from {cli.__file__}, not {checkout / 'src'}")
    lines = []
    for workload in WORKLOADS:
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix="qif-outputs-digest-"))
            try:
                wl = bench_run.Workload(workload, seed, workdir)
                for i, (call, argv, csv_path) in enumerate(zip(wl.calls, wl.argv, wl.csv)):
                    outcome, _ = bench_run.run_call(cli, argv, csv_path)
                    out, err, exc = (None if text is None else text.replace(str(workdir), "{dir}")
                                     for text in (outcome.out, outcome.err, outcome.exc))
                    lines.append(json.dumps({
                        "workload": workload, "seed": seed, "call": i, "kind": call.kind,
                        "argv": list(call.argv), "code": outcome.code,
                        "stdout": _sha256(out), "stderr": _sha256(err),
                        "exc": _sha256(exc), "csv": _sha256(outcome.csv)}))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return lines


#: What a digest line records of a call, beyond its key (workload, seed, call).
FIELDS = ("kind", "argv", "code", "stdout", "stderr", "exc", "csv")
#: What a compact line records: the last is one hash over the four output digests.
COMPACT_FIELDS = ("kind", "code", "outputs")


def _outputs(line) -> str:
    return _sha256(json.dumps([line[f] for f in ("stdout", "stderr", "exc", "csv")]))[:16]


def fingerprint():
    """numpy's version and the SIMD targets it runs: its baseline and those found here."""
    import numpy
    simd = numpy.show_config(mode="dicts")["SIMD Extensions"]
    return [f"numpy {numpy.__version__}", " ".join(["cpu", *simd["baseline"], *simd["found"]])]


def load(path: Path):
    """{(workload, seed, call): line} of a digest file and its header lines, None if JSON."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("["):
        return {(line["workload"], line["seed"], line["call"]): dict(line, outputs=_outputs(line))
                for line in json.loads(text)}, None
    lines, header = {}, []
    for row in text.splitlines():
        if row.startswith("# "):
            header.append(row[2:])
            continue
        workload, seed, call, kind, code, outputs = row.split()
        lines[workload, int(seed), int(call)] = {"kind": kind, "code": int(code),
                                                 "outputs": outputs}
    return lines, header


def compare(old_path: Path, new_path: Path) -> int:
    """Print each call whose digest line differs between two files, then the count: 1 if any."""
    (old, old_header), (new, new_header) = load(old_path), load(new_path)
    fields = FIELDS if old_header is None and new_header is None else COMPACT_FIELDS
    keys = list(old) + [key for key in new if key not in old]
    differ = 0
    for key in keys:
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            changed = [f"only in {new_path if a is None else old_path}"]
        else:
            changed = [field for field in fields if a[field] != b[field]]
        if changed:
            differ += 1
            line = a or b
            print(f"{key[0]} seed {key[1]} call {key[2]} {line['kind']}: {', '.join(changed)}")
            argv = (b or a).get("argv") or line.get("argv")  # a compact line has none
            if argv is not None:
                print(f"    {shlex.join(argv)}")
    print(f"{differ} of {len(keys)} calls differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, nargs="?",
                    help="a source checkout with src/qif and bench/")
    ap.add_argument("out", type=Path, nargs="?", help="the digest file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 1234])
    ap.add_argument("--compact", action="store_true",
                    help="write one text line per call, under a numpy fingerprint")
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
    if args.compact:
        header = ("workload seed call kind code outputs", *fingerprint())
        rows = [f"# {line}" for line in header]
        rows += [f"{c['workload']} {c['seed']} {c['call']} {c['kind']} {c['code']} {_outputs(c)}"
                 for c in map(json.loads, lines)]
        args.out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    else:
        args.out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"{len(lines)} calls of {args.checkout} digested into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
