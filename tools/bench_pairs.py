"""Run the benchmark of two checkouts in alternating pairs and judge every end-to-end metric.

    python3 tools/bench_pairs.py OLD NEW --workload W [--workload W2 ...] --seed K --pairs N
        --seconds S [--claim M]

OLD is the parent's checkout and NEW the change's.  Each run is a fresh
``python3 bench/run.py --workload W --seed K --seconds S`` in its own checkout,
so each side measures its own ``src/qif`` with its own harness, and the last
line of the run's standard output is read as JSON.  Each workload gets its N
pairs and is judged in its own block, in the order given.  Pair i runs OLD
first when i is even and NEW first when it is odd.  A line per run is printed
as it ends.

Then, for each metric, both sides' median and quartiles and the change's wins
out of the N pairs; a tie counts for neither side.  Directions and bounds are
NEW/BENCHMARK.json's.  The verdicts:

- ``--claim M``, judged on the first workload only: the gain is met when the
  change wins at least 9 of every 10 pairs and its median is better than the
  parent's by more than the parent's interquartile range.
- every other end-to-end metric: ``within`` when the change's median is worse
  than the parent's by at most the metric's bound, a fraction of the parent's
  median, else ``OUTSIDE``.  Where either side's interquartile range, as a
  fraction of its median, exceeds the bound, the runs cannot tell: the verdict
  is ``unresolved``, or ``within`` if every run of the change reads better than
  every run of the parent.  The metrics are positive, so no median is 0.

A larger share of failed calls on the change's side also fails the check.
Exits 1 when a verdict of any workload fails (``not met`` or ``OUTSIDE``), else
0.  Standard library only; nothing is written but what bench/run.py itself
writes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) of values, linearly interpolated between order statistics."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(old, new, better):
    """Pairs the change wins; a tie counts for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (o - n) > 0 for o, n in zip(old, new))


def claim_verdict(old, new, better):
    """(met, reason): at least 9/10 pairs won, and a median gain beyond the parent's IQR."""
    won = wins(old, new, better)
    q1, median_old, q3 = quartiles(old)
    gain = (median_old - quartiles(new)[1]) * (1 if better == "lower" else -1)
    met = 10 * won >= 9 * len(old) and gain > q3 - q1
    return met, f"{won}/{len(old)} pairs won, median gain {gain:.6g} vs parent IQR {q3 - q1:.6g}"


def bound_verdict(old, new, better, bound):
    """'within' or 'OUTSIDE' the bound for the change's median; 'unresolved' when either side's
    IQR exceeds the bound, unless every run of the change reads better than every parent run."""
    sign = 1 if better == "lower" else -1
    (o1, median_old, o3), (n1, median_new, n3) = quartiles(old), quartiles(new)
    if max((o3 - o1) / median_old, (n3 - n1) / median_new) > bound:
        return "within" if all(sign * (o - n) > 0 for o in old for n in new) else "unresolved"
    return "within" if sign * (median_new - median_old) <= bound * median_old else "OUTSIDE"


def run_once(checkout, workload, args):
    """The last JSON line of one fresh bench/run.py in checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True,
                          timeout=10 * args.seconds + 600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def judge(workload, runs, end_to_end, claim, args) -> bool:
    """Print one workload's block of verdicts on runs {"old": [...], "new": [...]}; False if
    a verdict fails or more calls fail on the change's side."""
    failed = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for side, rs in runs.items()}
    ok = failed["new"] <= failed["old"]
    pairs = len(runs["new"])
    print(f"{workload} seed {args.seed}, {pairs} pairs of {args.seconds:g} s: "
          f"failed share {failed['old']:.6g} -> {failed['new']:.6g}")
    for name in runs["new"][0]["metrics"]:
        old = [r["metrics"][name]["value"] for r in runs["old"]]
        new = [r["metrics"][name]["value"] for r in runs["new"]]
        better = end_to_end.get(name, {}).get("better", "lower")
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        line = (f"  {name}: {om:.6g} [{o1:.6g}, {o3:.6g}] -> {nm:.6g} [{n1:.6g}, {n3:.6g}] "
                f"({nm / om - 1:+.1%}), change wins {wins(old, new, better)}/{pairs}")
        if name == claim:
            met, reason = claim_verdict(old, new, better)
            ok &= met
            line += f"; claim {'met' if met else 'not met'}: {reason}"
        elif name in end_to_end:
            verdict = bound_verdict(old, new, better, end_to_end[name]["bound"])
            ok &= verdict != "OUTSIDE"
            line += f"; {verdict} bound {end_to_end[name]['bound']:g}"
        print(line)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--claim")
    args = ap.parse_args(argv)
    spec = json.loads((args.new / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in end_to_end:
        ap.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")

    ok = True
    for w, workload in enumerate(args.workload):
        runs = {"old": [], "new": []}
        for i in range(args.pairs):
            for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                result = run_once(getattr(args, side), workload, args)
                runs[side].append(result)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"{workload} pair {i} {side}: failed {result['failed']}/"
                      f"{result['attempted']} {values}", flush=True)
        ok &= judge(workload, runs, end_to_end, args.claim if w == 0 else None, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
